"""Approximately uniform random Latin squares, and exhaustive small-order
enumeration.

The sampler walks the Jacobson-Matthews proper/improper incidence-cube
chain: states are n x n x n 0/1 arrays with all line sums 1, except that one
cell may hold -1 (the improper case).  A move picks a random 0-cell (or the
forced -1 cell) and flips the 2x2x2 subcube it spans with one 1-entry on
each of its three lines.  The walk's proper states are uniform over all
Latin squares in the limit; burn-in and thinning are counted in
proper-state visits.

The cube has one form, which `MarkovState` holds and checks and the walk
moves in place: three lists of n row lists (the symbol of each cell by row,
the column of each row/symbol pair by row, the row of each column/symbol
pair by column), every entry a plain index below n.  A line through the -1
cell holds two 1-entries, every other line one; the two members of each
doubled line are held apart, in `MarkovState.doubled` between calls and in
locals during one, and the lists' entries on those three lines are not
read.  Each proper move starts an excursion: an inner loop flips it and
then makes the improper moves that follow, with no test of whether the
state is proper, until an apex lands on a 1-entry.  A move touches six row
lists, three through its corner and three through its apex; the apex's
become the next move's corner lines, so an improper move computes no
index.  A move costs about 0.4 us at orders 10 and 31 in CPython 3.11 on a
shared 2-vCPU x86 host, and the walk makes about n moves per proper-state
visit.  `jm_step` is one move of the same loop, 1.4-1.6 us per call at
order 31 on the same host; `sample_squares` drives it.

The walk draws from `SeededRng`'s buffers of its two bounds (n^3 and 2)
directly rather than through `randint`: it refills a buffer where `randint`
would and writes the positions back on exit, so the stream is the one
`randint` would give.  An improper move reads its three coins b[i], b[i+1],
b[i+2] as one code b[i]*4 + b[i+1]*2 + b[i+2], made with numpy when a
bound-2 buffer is filled and kept with it; a move that starts at one of the
buffer's last two positions reads its coins one at a time.  A subclass that
overrides `randint` does not see these draws; `SeededRng.draws` counts them.

The enumerators build squares row by row.  Each row is a permutation of
1..n with an n^2-bit code (bit c*n + s - 1 for symbol s in column c), so a
row fits under the rows above iff its code shares no bit with theirs.  The
search checks forward: placing a row filters the lists of the later rows
but the last to the entries that fit under it, and a list left empty ends
the branch.  The last row is forced, the symbol each column lacks, and is
looked up by its code.  Taking rows from lexicographically sorted lists
gives the squares in row-major lexicographic order.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Iterator

from .core import LatinSquare, ValidationError, _trusted_square, check_order, cyclic_square

if TYPE_CHECKING:
    import numpy as np  # imported at the first draw; see SeededRng

DEFAULT_BURNIN_FACTOR = 10  # burn-in = 10 * n^3 proper-state visits
_BUF = 8192
_TWO_64 = 1 << 64
_MASK64 = _TWO_64 - 1


class SeededRng:
    """Counter-style reproducible stream: (master seed, stream index).

    Distinct stream indices give statistically independent draws; the same
    pair reproduces the same sequence.  The Philox generator is built on
    first use, so a stream that is only derived from costs about 1 us, and
    numpy is imported only then: a program that never draws never loads it.
    `randint` buffers 8192 draws per bound, refilled when spent, for the
    chain's hot loop; `shuffle` and `sample` need a new bound at every step
    and bypass the buffers.  `shuffle` is the generator's O(L) Fisher-Yates;
    `sample` is an O(k) partial Fisher-Yates on raw 64-bit draws that never
    copies its input.  The walk reads its two bounds' buffers directly,
    refilling them where `randint` would, so a subclass that overrides
    `randint` does not see the walk's draws; `draws` counts them with the
    rest.  A bound-2 buffer also keeps the walk's three-coin codes (see the
    module docstring), 64 KB, made with the buffer at each refill, whether
    the walk or `randint(2)` refilled it.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        # bound -> [memoryview of the draws, next position, the three-coin
        # codes of a bound-2 buffer or None]; indexing a view yields a
        # Python int without copying the buffer
        self._buffers: dict[int, list] = {}
        self._spent = 0  # draws in the buffers that refills retired

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        """The Philox generator of (seed, stream), built on first use."""
        import numpy as np

        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, stream: int) -> "SeededRng":
        """A fresh independent stream; nested derivation mixes the parent
        stream index so distinct derivation paths never collide."""
        mixed = (self.stream * 0x9E3779B97F4A7C15 + stream + 1) % 2**64
        return SeededRng(self.seed, mixed)

    @property
    def draws(self) -> int:
        """The buffered draws taken so far, by `randint` and by the walk."""
        return self._spent + sum(buf[1] for buf in self._buffers.values())

    def randint(self, k: int) -> int:
        """Uniform integer in [0, k), buffered."""
        buf = self._buffers.get(k)
        if buf is None or buf[1] == _BUF:
            buf = self._refill(k)
        pos = buf[1]
        buf[1] = pos + 1
        return buf[0][pos]

    def _refill(self, k: int) -> list:
        """Replace bound k's buffer, spent if there is one, with _BUF fresh
        draws and return it as [view, 0, codes], where codes views the
        walk's three-coin codes of a bound-2 buffer and is None otherwise."""
        import numpy as np

        if k in self._buffers:
            self._spent += _BUF
        arr = self.generator.integers(0, k, size=_BUF, dtype=np.int64)
        codes = memoryview(4 * arr[:-2] + 2 * arr[1:-1] + arr[2:]) if k == 2 else None
        buf = self._buffers[k] = [memoryview(arr), 0, codes]
        return buf

    def shuffle(self, items: list) -> None:
        """In-place unbiased Fisher-Yates in O(len(items)), not buffered."""
        self.generator.shuffle(items)

    def sample(self, items, k: int) -> list:
        """k distinct members of the sequence `items`, in random order, in
        O(k): the first k steps of Durstenfeld's Fisher-Yates from the end,
        over a virtual index array in which `moved` holds only the positions
        a swap displaced, so `items` is never copied.  Step j swaps position
        i = L - 1 - j with a uniform position in [0, i], reduced from one
        raw 64-bit draw by Lemire's multiply-shift (ACM TOMACS 29, 2019); a
        rejected draw is replaced by one more raw draw.  Not buffered."""
        size = len(items)
        if not 0 <= k <= size:
            raise ValueError(f"sample size {k} outside 0..{size}")
        if not k:
            return []
        bits = self.generator.bit_generator
        moved: dict = {}
        out = []
        for i, x in zip(range(size - 1, size - 1 - k, -1), bits.random_raw(k).tolist()):
            bound = i + 1
            m = x * bound
            if m & _MASK64 < bound:
                floor = _TWO_64 % bound  # the low words below it are rejected
                while m & _MASK64 < floor:
                    m = bits.random_raw() * bound
            r = m >> 64
            out.append(items[moved.get(r, r)])
            moved[r] = moved.get(i, i)
        return out


class MarkovState:
    """Incidence-cube state of the walk; mutable, single-owner.

    The 1-entries (r, c, s) are held in three lists of n row lists that the
    walk moves in place: `sym[r][c] = s`, `col[r][s] = c` and
    `row[c][s] = r`, each entry a plain index below n.  The -1 entry, if
    any, is `improper`, and `doubled` is then (r_lo, r_hi, c_lo, c_hi, s_lo,
    s_hi), the two 1-entries of each of its three lines, lower first; the
    lists' entries on those lines are not read.  A proper state has both
    None.  No row list may be shared, within one of the three or between
    them: the walk writes each through its own name.
    """

    def __init__(self, n: int, sym: list[list[int]], col: list[list[int]], row: list[list[int]],
                 improper: tuple[int, int, int] | None = None,
                 doubled: tuple[int, int, int, int, int, int] | None = None):
        self.n, self.sym, self.col, self.row = n, sym, col, row
        self.improper, self.doubled = improper, doubled

    @classmethod
    def from_square(cls, square: LatinSquare) -> "MarkovState":
        n = square.n
        sym = [[s - 1 for s in cells] for cells in square.cells]
        col, row = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
        for r, line in enumerate(sym):
            col_r = col[r]
            for c, s in enumerate(line):
                col_r[s] = c
                row[c][s] = r
        return cls(n, sym, col, row)

    @property
    def is_proper(self) -> bool:
        return self.improper is None

    def to_square(self) -> LatinSquare:
        if self.improper is not None:
            raise ValidationError("improper state does not project to a square")
        return _trusted_square([[s + 1 for s in line] for line in self.sym])

    def line_sums_ok(self) -> bool:
        """The 0/+-1 cube that the lists describe with `improper` and
        `doubled` has all 3n^2 line sums equal to 1: the three hold n row
        lists of n entries each, no list twice, each gives one 1-entry on
        each of its lines, `doubled` two distinct ones, lower first, on each
        line through the -1 cell, and the three give the same set of
        1-entries, without the -1 cell.  Every entry that this reads is an
        int; the stale ones on the doubled lines are not read."""
        n, sym, col, row = self.n, self.sym, self.col, self.row
        lines = (*sym, *col, *row)
        if (len(sym) != n or len(col) != n or len(row) != n or len(set(map(id, lines))) != 3 * n
                or any(len(line) != n for line in lines)):
            return False
        span = range(n)
        by_sym = {(r, c, sym[r][c]) for r in span for c in span}
        by_col = {(r, col[r][s], s) for r in span for s in span}
        by_row = {(row[c][s], c, s) for c in span for s in span}
        if self.improper is None or self.doubled is None:
            if self.improper is not None or self.doubled is not None:
                return False
        else:
            r, c, s = self.improper
            r_lo, r_hi, c_lo, c_hi, s_lo, s_hi = self.doubled
            if not (0 <= r < n and 0 <= c < n and 0 <= s < n
                    and r_lo < r_hi and c_lo < c_hi and s_lo < s_hi):
                return False
            by_sym.remove((r, c, sym[r][c]))
            by_col.remove((r, col[r][s], s))
            by_row.remove((row[c][s], c, s))
            by_sym |= {(r, c, s_lo), (r, c, s_hi)}
            by_col |= {(r, c_lo, s), (r, c_hi, s)}
            by_row |= {(r_lo, c, s), (r_hi, c, s)}
            if (r, c, s) in by_sym:
                return False
        # the sets compare entries by value, so 1.0 or True would pass for 1
        return by_sym == by_col == by_row and all(
            type(x) is int for entries in (by_sym, by_col, by_row) for entry in entries for x in entry)


def _walk(state: MarkovState, rng: SeededRng, visits: int, one_move: bool = False) -> None:
    """Run the chain in place until it has made `visits` proper-state
    visits, or a single move when `one_move` is set.

    The moves work on the row lists of `state.sym`, `state.col` and
    `state.row` in place.  A move from the corner (r, c, s) to the apex
    (r1, c1, s1) touches only the lines `sym[r]`, `col[r]`, `row[c]` and
    `sym[r1]`, `col[r1]`, `row[c1]`; the apex's three are fetched once, when
    it is picked, and become the corner's when the move lands on a 0-entry,
    so an improper move indexes each list by a plain row, column or symbol.
    While the state is improper at (r, c, s), the two members of each of its
    three doubled lines are held as (low, high) pairs in locals, read from
    and written back to `state.doubled`.  Each pass of the outer loop makes
    one proper move, and the inner loop flips it and then makes the improper
    moves that follow until an apex lands on a 1-entry; `one_move` stops it
    after one flip.
    """
    n = state.n
    if n == 1 or visits <= 0:
        return  # a single square has nothing to move
    sym, col, row = state.sym, state.col, state.row
    proper = state.improper is None
    if not proper:
        r, c, s = state.improper
        r_lo, r_hi, c_lo, c_hi, s_lo, s_hi = state.doubled
        sym_r, col_r, row_c = sym[r], col[r], row[c]
        # the first move is an improper one that no proper move led into:
        # its three coins are drawn one at a time, as in the loop below,
        # before the buffers are held in locals
        draw = SeededRng.randint
        r1, r0 = (r_hi, r_lo) if draw(rng, 2) else (r_lo, r_hi)
        c1, c0 = (c_hi, c_lo) if draw(rng, 2) else (c_lo, c_hi)
        s1, s0 = (s_hi, s_lo) if draw(rng, 2) else (s_lo, s_hi)
        sym_r1, col_r1, row_c1 = sym[r1], col[r1], row[c1]
    # the buffers of the two bounds, read in place of `rng.randint`: a
    # missing buffer counts as spent, each is refilled when a draw finds it
    # spent, and the positions are written back on exit.  An improper move
    # reads its three coins as one code from bound 2's buffer, except when
    # it starts at one of the buffer's last two positions
    n3 = n * n * n
    buffers, refill, full = rng._buffers, rng._refill, _BUF
    edge = full - 2
    cube = buffers.get(n3)
    cube_view, cube_pos = (cube[0], cube[1]) if cube is not None else (None, full)
    coin = buffers.get(2)
    coin_view, coin_pos, codes = coin if coin is not None else (None, full, None)
    while True:
        if proper:
            while True:
                if cube_pos == full:
                    cube = refill(n3)
                    cube_view, cube_pos = cube[0], 0
                x = cube_view[cube_pos]
                cube_pos += 1
                rc = x // n  # rc = r*n + c
                s = x - rc * n
                r = rc // n
                c = rc - r * n
                sym_r = sym[r]
                s1 = sym_r[c]
                if s1 != s:
                    break
            # each line through the 0-cell holds one 1-entry; (r, c, s)
            # turns from 0 to 1 and becomes the entry left on its lines
            col_r, row_c = col[r], row[c]
            r1, c1 = row_c[s], col_r[s]
            r0, c0, s0 = r, c, s
            sym_r1, col_r1, row_c1 = sym[r1], col[r1], row[c1]
        while True:
            # flip the 2x2x2 subcube spanned by (r,c,s) and (r1,c1,s1): on
            # each of its 12 lines the 1-entry moves to the other corner,
            # except on the three lines through the apex (r1,c1,s1) when it
            # becomes -1
            sym_r[c] = s0
            sym_r[c1] = sym_r1[c] = s1
            col_r[s] = c0
            col_r[s1] = col_r1[s] = c1
            row_c[s] = r0
            row_c[s1] = row_c1[s] = r1
            t = sym_r1[c1]
            if t == s1:
                sym_r1[c1], col_r1[s1], row_c1[s1] = s, c, r
                proper = True
                break
            # the apex turns from 0 to -1; each of its lines keeps its old
            # 1-entry and gains the one the flip put there
            u, w = col_r1[s1], row_c1[s1]
            if s < t:
                s_lo, s_hi = s, t
            else:
                s_lo, s_hi = t, s
            if c < u:
                c_lo, c_hi = c, u
            else:
                c_lo, c_hi = u, c
            if r < w:
                r_lo, r_hi = r, w
            else:
                r_lo, r_hi = w, r
            r, c, s = r1, c1, s1
            sym_r, col_r, row_c = sym_r1, col_r1, row_c1
            if one_move:
                proper = False
                break
            # each line through the -1 cell holds two 1-entries; coin 0
            # picks the lower index, 1 the higher, and the other one stays
            # on the line once (r, c, s) turns from -1 to 0
            if coin_pos < edge:
                code = codes[coin_pos]
                coin_pos += 3
            else:
                code = 0
                for _ in range(3):
                    if coin_pos == full:
                        coin = refill(2)
                        coin_view, coin_pos, codes = coin
                    code = 2 * code + coin_view[coin_pos]
                    coin_pos += 1
            if code & 4:
                r1, r0 = r_hi, r_lo
            else:
                r1, r0 = r_lo, r_hi
            if code & 2:
                c1, c0 = c_hi, c_lo
            else:
                c1, c0 = c_lo, c_hi
            if code & 1:
                s1, s0 = s_hi, s_lo
            else:
                s1, s0 = s_lo, s_hi
            sym_r1, col_r1, row_c1 = sym[r1], col[r1], row[c1]
        if not proper:
            break
        visits -= 1
        if not visits:
            break
    if cube is not None:
        cube[1] = cube_pos
    if coin is not None:
        coin[1] = coin_pos
    if proper:
        state.improper = state.doubled = None
    else:
        state.improper = (r, c, s)
        state.doubled = (r_lo, r_hi, c_lo, c_hi, s_lo, s_hi)


def jm_step(state: MarkovState, rng: SeededRng) -> MarkovState:
    """One move of the chain on the state's row lists, in place; returns the
    state for chaining.  Each call holds and writes back the RNG buffers, as
    a whole walk does once, so a call costs about four moves of `_walk`."""
    _walk(state, rng, 1, one_move=True)
    return state


def sample_uniform(
    n: int, rng: SeededRng, burnin: int | None = None
) -> LatinSquare:
    """One (approximately) uniform square of order n.

    Starts the walk at the cyclic square and runs `burnin` proper-state
    visits (default 10 * n^3); deterministic given (rng state, burnin).
    """
    return next(sample_squares(n, rng, 1, burnin=burnin))


def sample_squares(
    n: int,
    rng: SeededRng,
    count: int,
    burnin: int | None = None,
    thin: int | None = None,
) -> Iterator[LatinSquare]:
    """A stream of `count` samples from one walk; thinned between samples.
    The arguments are checked when the iterator is made."""
    check_order(n)
    if burnin is None:
        burnin = DEFAULT_BURNIN_FACTOR * n**3
    if thin is None:
        thin = n**3
    for name, value in (("count", count), ("burnin", burnin), ("thin", thin)):
        if type(value) is not int:  # a float burn-in would never count down to 0
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")

    def walk() -> Iterator[LatinSquare]:
        state = MarkovState.from_square(cyclic_square(n))
        for i in range(count):
            _walk(state, rng, thin if i else burnin)
            yield state.to_square()

    return walk()


# --- exhaustive enumeration of small orders ---------------------------------

REDUCED_LIMIT = 6
ALL_LIMIT = 5


def enumerate_reduced(n: int, row_prefix: list[list[int]] | None = None) -> Iterator[LatinSquare]:
    """All reduced squares (first row and column in natural order), n <= 6,
    in row-major lexicographic order; n is checked when this is called.

    `row_prefix` optionally restricts the output to squares whose leading
    rows equal the given ones.
    """
    check_order(n)
    if n > REDUCED_LIMIT:
        raise ValidationError(f"reduced enumeration refused for order {n} > {REDUCED_LIMIT}")
    perms = _permutations(n)
    choices = [perms[:1]] + [[p for p in perms if p[0][0] == r + 1] for r in range(1, n)]
    prefix = [tuple(row) for row in row_prefix or ()]
    if len(prefix) > n:
        return iter(())
    for r, row in enumerate(prefix):
        choices[r] = [p for p in choices[r] if p[0] == row]
    return _row_search(n, choices)


def enumerate_all(n: int) -> Iterator[LatinSquare]:
    """Every square of order n exactly once, n <= 5, in row-major
    lexicographic order; n is checked when this is called."""
    check_order(n)
    if n > ALL_LIMIT:
        raise ValidationError(f"full enumeration refused for order {n} > {ALL_LIMIT}")
    return _row_search(n, [_permutations(n)] * n)


def _permutations(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The permutations of 1..n in lexicographic order, each with its code:
    bit c*n + s - 1 set for symbol s in column c."""
    return [
        (p, sum(1 << (c * n + s - 1) for c, s in enumerate(p)))
        for p in itertools.permutations(range(1, n + 1))
    ]


def _row_search(n: int, choices: list[list[tuple[tuple[int, ...], int]]]) -> Iterator[LatinSquare]:
    """The squares whose row r is a permutation from `choices[r]`, in the
    lists' order, by forward checking.  Placing a row filters the lists of
    the later rows but the last to the entries whose code shares no bit with
    its own, and skips the branch if one comes out empty; every entry left
    fits under the rows placed.  The last row is forced: its code is the
    full n^2-bit mask minus the codes above, looked up among `choices[n - 1]`.
    """
    full = (1 << n * n) - 1
    last = {code: row for row, code in choices[-1]}
    rows: list[tuple[int, ...]] = []

    def extend(lists: list[list[tuple[tuple[int, ...], int]]], used: int) -> Iterator[LatinSquare]:
        if not lists:
            row = last.get(full ^ used)
            if row is not None:
                yield _trusted_square([*rows, row])
            return
        later = lists[1:]
        for row, code in lists[0]:
            kept = []
            for entries in later:
                fits = [entry for entry in entries if not entry[1] & code]
                if not fits:
                    break
                kept.append(fits)
            else:
                rows.append(row)
                yield from extend(kept, used | code)
                rows.pop()

    return extend(choices[:-1], 0)
