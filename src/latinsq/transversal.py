"""Transversal enumeration, maximum partial transversals, and decomposition.

One engine, `_transversals`, finds transversals by meeting in the middle
(Horowitz and Sahni, J. ACM 21, 1974), with bitmasks for the columns and
symbols in use.  Its input is a list of picks per row: the column bit and
the shifted symbol bit of each cell the row may take, in column order.
The engine builds a table of one part of the rows, keyed by the column and
symbol bits of each of their partial transversals, and a depth-first search
over the other rows joins each of its partial transversals with the table
entries under the complementary key.  The engine counts transversals and,
on request, emits each as an n^2-bit row-major cell mask, in lexicographic
column order.  To emit, the table holds the cell masks of the last rows,
grown from the bottom row up, and the search runs over the first rows, so
the masks come out in order.  It covers at most n // 2 rows and holds at
most min(limit, DEFAULT_CANDIDATE_THRESHOLD) entries.  To count, the table
holds the counts of the first rows, grown from row 0 down, in at most
DEFAULT_CANDIDATE_THRESHOLD keys, and the search runs over the last rows.
Each table grows in one loop that stops before the row that would take it
past its bound and leaves that row to the search, so a small limit leaves
a plain depth-first search.  The squares of a scan in lexicographic order
share their first rows, so the last count table is kept, and a count whose
first rows are the same reuses it (8 344 of the 9 408 counts of the order-6
scan).  One is kept only at orders up to DEFAULT_EXACT_BOUND; there it
covers the larger half of the rows, but never the last, and above that the
smaller half.  Its keys come in the lexicographic order of their first
partial transversals, so the first key that the search hits, which
`_completion` completes on both sides, leads the lexicographically first
transversal; the search also ORs together the cells that each table hit
takes in the searched rows.  `count_transversals`,
`iter_transversals`, `max_partial_transversal` and `decompose` call the
engine.  The partial one relaxes k = 0, 1, ... rows to rows of one symbol
until the square has a transversal: each relaxed row of symbol s takes
every column, and one mask of the k symbols' bits drops their cells from
the picks of the other rows.

What the public calls learn of a square goes into its record,
`LatinSquare.transversal_record`, so that no later call on the same object
works it out again.  `_picks` stores the picks, which every engine call
takes as they are or as a filtered copy and no caller may change.
`count_transversals` alone stores the rest: the transversal count, the cell
mask of the first transversal when there is one, and a dead cell, the
row-major index of a cell of the searched last rows that no table hit took
and which is therefore on no transversal (one among the table's first rows
goes unrecorded; a count of 0 always comes with one, since the searched
rows then have no hit).  The other calls only read: `decompose` answers
"none" with 0 nodes for a dead cell at a count within the candidate
threshold, as its dead-cell test would, and `max_partial_transversal`
answers with a stored first transversal, or skips k = 0 for a count of 0.
`iter_transversals` shares only the picks.  The record never holds the
candidate list, which can reach 10^6 masks; that is why
`count_transversals` counts without materialising them.

Decomposing a square into n disjoint transversals is an exact cover problem:
the n^2 cells must be covered exactly once by cell sets of candidate
transversals.  When no candidate covers some cell, no cover exists, and the
search's root answers "none" with 0 nodes at any budget, since it branches
on that cell first (9120 of the 9408 reduced squares of order 6 end there;
after `count_transversals`, 8904 of them end at the record, before any
enumeration).  The solver is Knuth's Algorithm X over bitsets: Python ints
hold the set of candidates still alive and, per cell, the candidates
through it.  Each node branches on the open cell with the fewest live
candidates (lowest row-major cell on ties) and tries them in enumeration
order.  It answers with a definite "some"/"none" or an explicit
"undecided" when the node budget runs out, so statistics never conflate
timeouts with nonexistence.  A pick drops its conflicts with one AND, by a
mask of the candidates that share no cell with it, made on the pick's first
use.  The child is then scanned on its parent's open list, skipping the
cells the pick covered, and most children end there at a dead cell: only a
child with no dead cell gets a frame and an open list of its own.  When the
index space is wider than _REINDEX_WIDTH bits and fewer than 1 /
_REINDEX_FACTOR of its candidates are alive, the live ones are mapped in
ascending order onto a fresh, narrower space, whose cell masks cover the
open cells only; the search returns to the wider space when it backtracks
past that node.  The map keeps candidate order, so it changes no answer, node
count or part.  One builder, `_index_space`, makes the root space and every
re-indexed one from a list of candidate cell sets, setting their bits a
chunk at a time.

`decompose` collects at most DEFAULT_CANDIDATE_THRESHOLD + 1 candidates, and
past the threshold it answers "undecided" with 0 nodes at any budget, never
"none", since it searched nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Literal, Optional

from .core import (
    Decomposition,
    LatinSquare,
    PartialTransversal,
    Transversal,
    check_limit,
    check_transversal,
)

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_CANDIDATE_THRESHOLD = 10**6
DEFAULT_EXACT_BOUND = 9
# The search maps the live candidates onto a fresh index space when the
# current one is wider than _REINDEX_WIDTH bits and fewer than 1 /
# _REINDEX_FACTOR of its candidates are alive.
_REINDEX_WIDTH = 1000
_REINDEX_FACTOR = 2
# _index_space sets the candidates' bits one chunk of _CHUNK at a time and
# shifts each chunk into place once per cell.  Setting each candidate's bit
# in the full-width masks would copy an ever wider int per (candidate, cell):
# quadratic in the candidate count, 14 s of set-up at order 14.  A wider chunk
# makes each bit cost more and a narrower one makes more shifts; 2048 was the
# fastest of 1024 to 8192 at orders 12 to 14 (0.7 s for 424 444 candidates).
_CHUNK = 2048


class ExactSearchRefused(ValueError):
    """Raised instead of silently falling back to a heuristic."""


@dataclass(frozen=True)
class DecomposeResult:
    status: Literal["some", "none", "undecided"]
    decomposition: Optional[Decomposition]
    nodes: int
    # the number of candidate transversals collected; None past
    # DEFAULT_CANDIDATE_THRESHOLD, where decompose stops collecting
    candidates: Optional[int] = None


def _picks(square: LatinSquare) -> list[list[int]]:
    """Per row, the used bits of each cell in column order: its column bit,
    and its symbol bit shifted up by n.  Built once per square and kept in
    its record, so no caller may change them."""
    record = square.transversal_record
    picks = record.get("picks")
    if picks is None:
        n = square.n
        picks = record["picks"] = [
            [1 << c | 1 << n + s - 1 for c, s in enumerate(row)] for row in square.cells
        ]
    return picks


class _Stop(Exception):
    """Unwinds a search: enough masks collected."""


def _transversals(
    picks: list[list[int]],
    out: Optional[list[int]] = None,
    limit: Optional[int] = None,
    record: Optional[dict] = None,
) -> int:
    """The number of transversals that take one cell of ``picks[r]`` in each
    row r.  A pick is a cell's used bits, its column bit and its symbol bit
    shifted up by n; the lowest, u & -u, shifted up by r * n is the cell's
    mask bit.  A row lists its cells in column order and may leave some out
    or repeat a symbol.  Appends each transversal's cell mask, bit r * n + c
    for 0-based cell (r, c), to ``out`` if given, lexicographic in the
    columns of rows 0..n-1, and stops once ``out`` holds ``limit`` masks.

    When emitting, the table holds the masks of the last rows top..n-1 and
    the search runs over rows 0..top-1, so the masks come out in order.
    When counting, the table holds the counts of the first rows 0..top-1,
    kept from the last count whose first rows were the same (see
    `_first_rows`), and the search runs over rows top..n-1.  It then stores
    in ``record``, if given, the first transversal's cell mask under "first"
    and, when a cell of the searched rows top..n-1 is on no transversal, the
    lowest such cell's row-major index under "dead"."""
    n = len(picks)
    full = (1 << n) - 1
    counting = out is None
    if counting:
        start, table = _first_rows(picks)
        stop = n
    else:
        start = 0
        bound = DEFAULT_CANDIDATE_THRESHOLD
        if limit is not None:
            bound = min(limit, bound)
        stop, table = _table(picks, bound)
    leaf = stop - 1
    complement = full | full << n
    get = table.get
    # When counting: the table keys that the search hit, the OR of the hits'
    # cells in rows start..n-2 and that of their picks in row n-1.
    hit: set[int] = set()
    cover = last = 0

    def rec(r: int, used: int, cells: int) -> int:
        nonlocal cover, last
        total = 0
        shift = r * n
        if r < leaf:
            for u in picks[r]:
                if not used & u:
                    total += rec(r + 1, used | u, cells | (u & -u) << shift)
        elif counting:
            rest = used ^ complement
            hits = 0
            for u in picks[r]:
                if not used & u:
                    key = rest ^ u
                    count = get(key)
                    if count:
                        total += count
                        hits |= u
                        hit.add(key)
            if hits:
                cover |= cells
                last |= hits
        else:
            for u in picks[r]:
                if not used & u:
                    group = get((used | u) ^ complement)
                    if group:
                        cells_r = cells | (u & -u) << shift
                        for m in group:
                            out.append(cells_r | m)
                            if len(out) == limit:
                                raise _Stop
                        total += len(group)
        return total

    try:
        total = rec(start, 0, 0)
    except _Stop:
        return len(out)
    finally:
        del rec  # it refers to itself; free out with the caller's reference
    if record is not None:
        searched = ((1 << n * n) - 1) ^ ((1 << start * n) - 1)
        dead = searched & ~(cover | (last & full) << leaf * n)
        if dead:
            record["dead"] = (dead & -dead).bit_length() - 1
        if hit:
            # The table's key order is that of each key's first partial
            # transversal, so the first key hit leads the first transversal.
            key = next(key for key in table if key in hit)
            record["first"] = _completion(picks, 0, start, key) | _completion(
                picks, start, n, key ^ complement
            )
    return total


def _completion(picks: list[list[int]], r: int, stop: int, rest: int) -> Optional[int]:
    """The cell mask of rows r..stop-1 in the lexicographically first way
    for them to take one pick each that together use exactly the bits of
    rest, or None if there is none.  A module function, so that its
    recursion leaves no cyclic garbage."""
    if r == stop:
        return 0
    for u in picks[r]:
        if u & rest == u:
            tail = _completion(picks, r + 1, stop, rest ^ u)
            if tail is not None:
                return (u & -u) << r * len(picks) | tail
    return None


# The last count table grown at an order of at most DEFAULT_EXACT_BOUND, as
# (the candidate threshold it grew under, a copy of the picks of the rows it
# was grown from, top, table), or None after a count at a higher order.
_count_memo: Optional[tuple[int, list[list[int]], int, dict[int, int]]] = None


def _first_rows(picks: list[list[int]]) -> tuple[int, dict[int, int]]:
    """`_count_table` of the first rows of picks under the candidate
    threshold, or the table of the last count whose threshold and first
    rows, all that the growth reads, were the same.  The squares of a scan
    in lexicographic order share their first rows, so consecutive counts
    reuse one table.  A table is kept only at orders up to
    DEFAULT_EXACT_BOUND, where it has at most C(9, 4)^2 = 15 876 keys.
    There its growth is shared and the search is not, so it takes the
    larger half of the rows, leaving the search at least the last row;
    elsewhere it takes the smaller half, the other half of the emitting
    table's split."""
    global _count_memo
    n = len(picks)
    bound = DEFAULT_CANDIDATE_THRESHOLD
    kept = n <= DEFAULT_EXACT_BOUND
    rows = picks[: min(n - 1, (n + 1) // 2) if kept else n // 2]
    memo = _count_memo
    if memo is not None and memo[0] == bound and memo[1] == rows:
        return memo[2], memo[3]
    top, table = _count_table(rows, bound)
    _count_memo = (bound, [row[:] for row in rows], top, table) if kept else None
    return top, table


def _count_table(rows: list[list[int]], bound: int) -> tuple[int, dict[int, int]]:
    """The number top of rows in the table, and the table: the used bits of
    each partial transversal of rows 0..top-1 mapped to their number, in the
    lexicographic order of each key's first partial transversal.  It grows
    from row 0 down, with the keys as the outer loop and the row's picks in
    column order as the inner one, which keeps that order, and stops before
    the first row that would take it past bound keys: the size is checked
    after each key, so the abandoned row holds at most len(row) keys past
    bound."""
    table = {0: 1}
    for top, row in enumerate(rows):
        grown: dict[int, int] = {}
        get = grown.get
        for key, count in table.items():
            for u in row:
                if not key & u:
                    used = key | u
                    grown[used] = get(used, 0) + count
            if len(grown) > bound:
                return top, table
        table = grown
    return len(rows), table


def _table(picks: list[list[int]], bound: int) -> tuple[int, dict[int, list[int]]]:
    """The first row top of the emitting table, and the table: the used bits
    of each partial transversal of rows top..n-1 mapped to its cell masks in
    lexicographic order.  It grows from the bottom row up, with the new row
    as the outer loop, which keeps the masks lexicographic, to n // 2 rows,
    and stops before the first row that would take it past bound masks."""
    n = len(picks)
    top = n
    keys, masks = [0], [0]
    while top > n - n // 2:
        shift = (top - 1) * n
        grown_keys: list[int] = []
        grown_masks: list[int] = []
        add_key, add_mask = grown_keys.append, grown_masks.append
        for u in picks[top - 1]:
            cell = (u & -u) << shift
            for key, mask in zip(keys, masks):
                if not key & u:
                    add_key(key | u)
                    add_mask(cell | mask)
            if len(grown_masks) > bound:
                break
        if len(grown_masks) > bound:
            break
        keys, masks, top = grown_keys, grown_masks, top - 1
    groups: dict[int, list[int]] = {}
    for key, mask in zip(keys, masks):
        group = groups.get(key)
        if group is None:
            groups[key] = [mask]
        else:
            group.append(mask)
    return top, groups


def _cells(mask: int) -> list[int]:
    """The set bits of mask, ascending.  Taken from the top, which makes
    fewer new ints than taking mask & -mask from the bottom."""
    cells = []
    while mask:
        top = mask.bit_length() - 1
        cells.append(top)
        mask ^= 1 << top
    cells.reverse()
    return cells


def _transversal(mask: int, n: int) -> Transversal:
    return Transversal(cells=tuple((cell // n + 1, cell % n + 1) for cell in _cells(mask)))


def iter_transversals(square: LatinSquare, limit: int | None = None) -> Iterator[Transversal]:
    """All transversals, or the first `limit` of them, lexicographic in the
    column chosen for rows 1..n."""
    check_limit(limit)
    masks: list[int] = []
    if limit != 0:
        _transversals(_picks(square), masks, limit)
    return (_transversal(mask, square.n) for mask in masks)


def count_transversals(square: LatinSquare) -> int:
    """Number of transversals, without materialising them.  The count, the
    first transversal and a dead cell, if the search proved one, go into the
    square's record."""
    record = square.transversal_record
    count = record.get("count")
    if count is None:
        count = record["count"] = _transversals(_picks(square), record=record)
    return count


def max_partial_transversal(square: LatinSquare) -> PartialTransversal:
    """A maximum-size partial transversal.  One of size n - k leaving out
    rows R exists exactly when, for some k symbols S, the square with the
    rows of R relaxed to rows of one symbol of S each has a transversal: the
    rows of R take the columns and symbols the others leave.  So k counts up
    from 0 to at most n, where every row is relaxed.

    Exact search only: orders above DEFAULT_EXACT_BOUND are refused rather
    than answered heuristically.
    """
    n = square.n
    if n > DEFAULT_EXACT_BOUND:
        raise ExactSearchRefused(
            f"exact search refused: order {n} exceeds the bound {DEFAULT_EXACT_BOUND}"
        )
    picks = _picks(square)
    record = square.transversal_record
    found: list[int] = []
    # k = 0 asks for the first transversal, unless a count on this square
    # has found it or found that there is none
    first = record.get("first")
    if first is None and record.get("count") != 0 and _transversals(picks, found, 1):
        first = found[0]
    if first is not None:
        return PartialTransversal(_transversal(first, n).cells)
    # The last rows are relaxed first, so the search gives them the columns
    # left instead of trying each, and the other rows are barred from S up
    # front: 180-210 us a square without a transversal on the order-6 scan,
    # against 1.2-1.25 times that relaxing the first rows and 1.1-1.2 times
    # unbarred (best of 7 passes over the 2100 squares, one process, shared
    # 2-vCPU host).
    for k in range(1, n + 1):
        for rows in combinations(range(n - 1, -1, -1), k):
            for symbols in combinations(range(n), k):
                barred = sum(1 << n + s for s in symbols)
                relaxed = [[u for u in row if not u & barred] for row in picks]
                for r, s in zip(rows, symbols):
                    relaxed[r] = [1 << c | 1 << n + s for c in range(n)]
                if _transversals(relaxed, found, 1):
                    return PartialTransversal(tuple(
                        (cell // n + 1, cell % n + 1) for cell in _cells(found[0]) if cell // n not in rows
                    ))
    raise AssertionError("a square with every row relaxed has a transversal")


def decompose(square: LatinSquare, node_budget: int = DEFAULT_NODE_BUDGET) -> DecomposeResult:
    """Split the square into n disjoint transversals, if possible.

    Returns status "some" with a decomposition that `verify_decomposition`
    accepts (an AssertionError naming the violation is raised otherwise), a
    definite "none", or "undecided" when the node budget is exhausted.  A
    square with more than DEFAULT_CANDIDATE_THRESHOLD transversals is
    answered "undecided" with 0 nodes and candidates None, at any budget,
    without a search.
    """
    if type(node_budget) is not int:
        raise TypeError(f"node budget must be an int, got {type(node_budget).__name__}")
    if node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    record = square.transversal_record
    # A cell that the counting pass found on no transversal ends the search
    # at its root, as a cell on no candidate does there.
    if "dead" in record and record["count"] <= DEFAULT_CANDIDATE_THRESHOLD:
        return DecomposeResult("none", None, 0, record["count"])
    masks: list[int] = []
    _transversals(_picks(square), masks, DEFAULT_CANDIDATE_THRESHOLD + 1)
    if len(masks) > DEFAULT_CANDIDATE_THRESHOLD:
        return DecomposeResult("undecided", None, 0, None)
    res = _exact_cover(masks, square.n, node_budget)
    if res.status == "some":
        ok, msg = verify_decomposition(square, res.decomposition)
        if not ok:
            raise AssertionError(f"decompose found an invalid decomposition: {msg}")
    return res


def _exact_cover(masks: list[int], n: int, node_budget: int) -> DecomposeResult:
    # The candidate index space: bit i stands for candidate ids[i] (an index
    # of masks), rows[i] is its set of row-major cells, cellrows[cell] has bit
    # i set when candidate i covers cell, and keep[i], filled on first use,
    # has every bit but those of the candidates that share a cell with i.
    size = n * n
    ids, rows, cellrows, keep = _index_space(
        range(len(masks)), [frozenset(_cells(mask)) for mask in masks], size
    )
    # Iterative, so that no self-referencing closure keeps these structures
    # alive as cyclic garbage after the call.  A frame holds the live set, the
    # open cells and the untried candidates of the node where the matching
    # entry of picked was chosen, or, as a 4-tuple, the index space that the
    # search left below it.
    nodes = 0
    picked: list[int] = []
    frames: list[tuple] = []
    alive, open_cells = (1 << len(masks)) - 1, list(range(size))
    # fewest live candidates, first open cell on ties; a cell on no
    # candidate answers "none" at the root, before the budget test
    counts = list(map(int.bit_count, cellrows))
    choices = cellrows[counts.index(min(counts))]
    above = len(masks) + 1  # more than any cell's count
    while True:
        while not choices:
            if not frames:
                return DecomposeResult("none", None, nodes, len(masks))
            frame = frames.pop()
            if len(frame) == 4:
                ids, rows, cellrows, keep = frame
            else:
                alive, open_cells, choices = frame
                picked.pop()
        if nodes == node_budget:
            return DecomposeResult("undecided", None, nodes, len(masks))
        nodes += 1
        low = choices & -choices
        choices ^= low
        rid = low.bit_length() - 1
        cells = rows[rid]
        child = keep[rid]
        if child is None:
            conflict = 0
            for cell in cells:
                conflict |= cellrows[cell]
            child = keep[rid] = ((1 << len(ids)) - 1) ^ conflict
        child &= alive
        # Scan the child on this node's open list.  The picked cells read 0
        # there, so they are skipped, and tested for only when they would
        # become the child's pick.  A dead cell ends the child at once.
        best, fewest = -1, above
        for c in open_cells:
            k = (child & cellrows[c]).bit_count()
            if k < fewest and c not in cells:
                best, fewest = c, k
                if not k:
                    break
        if not fewest:
            continue  # on to the next sibling
        frames.append((alive, open_cells, choices))
        picked.append(ids[rid])
        if best < 0:
            break  # the pick covered the last open cells
        alive, open_cells = child, [c for c in open_cells if c not in cells]
        if len(ids) > _REINDEX_WIDTH and alive.bit_count() * _REINDEX_FACTOR < len(ids):
            frames.append((ids, rows, cellrows, keep))
            live = [i for i, bit in enumerate(bin(alive)[:1:-1]) if bit == "1"]
            ids, rows, cellrows, keep = _index_space(
                [ids[i] for i in live], [rows[i] for i in live], size
            )
            alive = (1 << len(ids)) - 1
        choices = alive & cellrows[best]
    parts = tuple(_transversal(masks[rid], n) for rid in sorted(picked))
    return DecomposeResult("some", Decomposition(parts=parts), nodes, len(masks))


def _index_space(
    ids: range | list[int], rows: list[frozenset[int]], size: int
) -> tuple[range | list[int], list[frozenset[int]], list[int], list[Optional[int]]]:
    """The index space of the candidates rows, in order on bits 0..L-1: the
    ids and rows as given, the candidate mask of each of the size cells, and
    an empty keep memo.  A cell no candidate covers reads 0."""
    cellrows = [0] * size
    for base in range(0, len(rows), _CHUNK):
        chunk = [0] * size
        bit = 1
        for cells in rows[base : base + _CHUNK]:
            for cell in cells:
                chunk[cell] |= bit
            bit <<= 1
        for cell, bits in enumerate(chunk):
            if bits:
                cellrows[cell] |= bits << base
    return ids, rows, cellrows, [None] * len(rows)


def verify_decomposition(square: LatinSquare, decomposition: Decomposition) -> tuple[bool, str]:
    """True plus "ok", or False plus the first violation found."""
    n = square.n
    parts = decomposition.parts
    if not isinstance(parts, (tuple, list)):
        return False, f"parts {parts!r} are not a tuple of Transversals"
    if len(parts) != n:
        return False, f"{len(parts)} parts, expected {n}"
    seen = [[0] * n for _ in range(n)]
    for k, part in enumerate(parts, start=1):
        if not (isinstance(part, Transversal) and isinstance(part.cells, (tuple, list))):
            return False, f"part {k}: {part!r} is not a Transversal with a tuple of cells"
        err = check_transversal(square, part.cells)
        if err is not None:
            return False, f"part {k}: {err}"
        for (r, c) in part.cells:
            seen[r - 1][c - 1] += 1
    for r in range(n):
        for c in range(n):
            if seen[r][c] > 1:
                return False, f"cell ({r + 1},{c + 1}) covered twice"
            if seen[r][c] == 0:
                return False, f"cell ({r + 1},{c + 1}) uncovered"
    return True, "ok"
