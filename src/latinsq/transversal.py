"""Transversal enumeration, maximum partial transversals, and decomposition.

Decomposing a square into n disjoint transversals is an exact cover problem:
the n^2 cells must be covered exactly once by cell sets of candidate
transversals.  The solver is Knuth's Algorithm X over bitsets: Python ints
hold the set of candidates still alive and, per cell, the candidates through
it.  Each node branches on the open cell with the fewest live candidates
(lowest row-major cell on ties) and tries them in enumeration order.  It
answers with a definite "some"/"none" or an explicit "undecided" when the
node budget runs out, so statistics never conflate timeouts with
nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from .core import (
    Decomposition,
    LatinSquare,
    PartialTransversal,
    Transversal,
    check_transversal,
)

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_CANDIDATE_THRESHOLD = 10**6
DEFAULT_EXACT_BOUND = 9


class ExactSearchRefused(ValueError):
    """Raised instead of silently falling back to a heuristic."""


@dataclass(frozen=True)
class DecomposeResult:
    status: Literal["some", "none", "undecided"]
    decomposition: Optional[Decomposition]
    nodes: int


def _symbol_bits(square: LatinSquare) -> list[list[int]]:
    return [[1 << s for s in row] for row in square.cells]


def iter_transversals(square: LatinSquare, limit: int | None = None) -> Iterator[Transversal]:
    """All transversals, lexicographic in the column chosen for rows 1..n."""
    n = square.n
    sym = _symbol_bits(square)
    full = (1 << n) - 1
    cols: list[int] = []

    def rec(r: int, colmask: int, symmask: int) -> Iterator[Transversal]:
        if r == n:
            yield Transversal(cells=tuple((i + 1, c + 1) for i, c in enumerate(cols)))
            return
        avail = full & ~colmask
        srow = sym[r]
        while avail:
            low = avail & -avail
            c = low.bit_length() - 1
            avail ^= low
            sb = srow[c]
            if not (symmask & sb):
                cols.append(c)
                yield from rec(r + 1, colmask | low, symmask | sb)
                cols.pop()

    count = 0
    for t in rec(0, 0, 0):
        yield t
        count += 1
        if limit is not None and count >= limit:
            return


def count_transversals(square: LatinSquare) -> int:
    """Number of transversals, without materialising them."""
    n = square.n
    sym = _symbol_bits(square)
    full = (1 << n) - 1

    def rec(r: int, colmask: int, symmask: int) -> int:
        if r == n:
            return 1
        total = 0
        avail = full & ~colmask
        srow = sym[r]
        while avail:
            low = avail & -avail
            avail ^= low
            sb = srow[low.bit_length() - 1]
            if not (symmask & sb):
                total += rec(r + 1, colmask | low, symmask | sb)
        return total

    return rec(0, 0, 0)


def max_partial_transversal(
    square: LatinSquare, exact_bound: int = DEFAULT_EXACT_BOUND
) -> PartialTransversal:
    """A maximum-size partial transversal, by branch and bound.

    Exact search only: orders above `exact_bound` are refused rather than
    answered heuristically.
    """
    n = square.n
    if n > exact_bound:
        raise ExactSearchRefused(
            f"exact search refused: order {n} exceeds the bound {exact_bound}"
        )
    sym = _symbol_bits(square)
    full = (1 << n) - 1
    best_cells: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def rec(r: int, colmask: int, symmask: int) -> None:
        nonlocal best_cells
        if len(chosen) + (n - r) <= len(best_cells):
            return  # cannot beat the incumbent
        if r == n:
            if len(chosen) > len(best_cells):
                best_cells = chosen[:]
            return
        avail = full & ~colmask
        srow = sym[r]
        while avail:
            low = avail & -avail
            c = low.bit_length() - 1
            avail ^= low
            sb = srow[c]
            if not (symmask & sb):
                chosen.append((r + 1, c + 1))
                rec(r + 1, colmask | low, symmask | sb)
                chosen.pop()
        rec(r + 1, colmask, symmask)  # leave row r uncovered

    rec(0, 0, 0)
    return PartialTransversal(cells=tuple(best_cells))


def decompose(
    square: LatinSquare,
    node_budget: int = DEFAULT_NODE_BUDGET,
    candidate_threshold: int = DEFAULT_CANDIDATE_THRESHOLD,
) -> DecomposeResult:
    """Split the square into n disjoint transversals, if possible.

    Returns status "some" with a validated decomposition, a definite "none",
    or "undecided" when the node budget is exhausted.  When the candidate
    transversal count exceeds `candidate_threshold`, candidates are generated
    lazily during the search instead of being materialised.
    """
    if node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    n = square.n
    candidates: list[Transversal] = []
    for t in iter_transversals(square):
        candidates.append(t)
        if len(candidates) > candidate_threshold:
            return _decompose_lazy(square, node_budget)
    if len(candidates) < n:
        return DecomposeResult(status="none", decomposition=None, nodes=0)

    # rows[rid]: the row-major cells of candidate rid, a set for the
    # membership tests that drop covered cells from the open list
    rows = [frozenset((r - 1) * n + c - 1 for (r, c) in t.cells) for t in candidates]
    cellrows = [0] * (n * n)  # bit rid of cellrows[cell]: candidate rid covers cell
    for rid, cells in enumerate(rows):
        for cell in cells:
            cellrows[cell] |= 1 << rid
    # Iterative, so that no self-referencing closure keeps these structures
    # alive as cyclic garbage after the call.  frames[k] holds the live row
    # set, the open cells and the untried rows of the node where picked[k]
    # was chosen.
    nodes = 0
    picked: list[int] = []
    frames: list[tuple[int, list[int], int]] = []
    alive, open_cells = (1 << len(rows)) - 1, list(range(n * n))
    while open_cells:
        # fewest live candidates, first open cell on ties; a dead cell ends
        # the branch without spending a node
        best, fewest = -1, len(rows) + 1
        for c in open_cells:
            k = (alive & cellrows[c]).bit_count()
            if k < fewest:
                best, fewest = c, k
                if not k:
                    break
        choices = alive & cellrows[best]
        while not choices:
            if not frames:
                return DecomposeResult(status="none", decomposition=None, nodes=nodes)
            alive, open_cells, choices = frames.pop()
            picked.pop()
        if nodes == node_budget:
            return DecomposeResult(status="undecided", decomposition=None, nodes=nodes)
        nodes += 1
        low = choices & -choices
        rid = low.bit_length() - 1
        frames.append((alive, open_cells, choices ^ low))
        picked.append(rid)
        cells = rows[rid]
        conflict = 0
        for cell in cells:
            conflict |= cellrows[cell]
        alive &= ~conflict
        open_cells = [c for c in open_cells if c not in cells]
    parts = tuple(candidates[rid] for rid in sorted(picked))
    return DecomposeResult(status="some", decomposition=Decomposition(parts=parts), nodes=nodes)


class _OutOfBudget(Exception):
    pass


def _decompose_lazy(square: LatinSquare, node_budget: int) -> DecomposeResult:
    # Branches on the first uncovered cell in row-major order and generates
    # the transversals through it on demand; trades the minimum-remaining-
    # values rule for bounded memory.
    n = square.n
    sym = _symbol_bits(square)
    full = (1 << n) - 1
    covered = [0] * n  # column bitmask of covered cells per row
    parts: list[Transversal] = []
    nodes = 0

    def transversals_through(r0: int, c0: int) -> Iterator[Transversal]:
        cols: list[int] = []

        def rec(r: int, colmask: int, symmask: int) -> Iterator[Transversal]:
            if r == n:
                yield Transversal(cells=tuple((i + 1, c + 1) for i, c in enumerate(cols)))
                return
            if r == r0:
                options = 1 << c0
            else:
                options = full & ~colmask & ~covered[r]
            srow = sym[r]
            while options:
                low = options & -options
                c = low.bit_length() - 1
                options ^= low
                if colmask & low:
                    return
                sb = srow[c]
                if not (symmask & sb):
                    cols.append(c)
                    yield from rec(r + 1, colmask | low, symmask | sb)
                    cols.pop()

        yield from rec(0, 0, 0)

    def rec_cover() -> bool:
        nonlocal nodes
        target = None
        for r in range(n):
            free = full & ~covered[r]
            if free:
                target = (r, (free & -free).bit_length() - 1)
                break
        if target is None:
            return True
        r0, c0 = target
        for t in transversals_through(r0, c0):
            if nodes == node_budget:
                raise _OutOfBudget
            nodes += 1
            for (r, c) in t.cells:
                covered[r - 1] |= 1 << (c - 1)
            parts.append(t)
            if rec_cover():
                return True
            parts.pop()
            for (r, c) in t.cells:
                covered[r - 1] &= ~(1 << (c - 1))
        return False

    try:
        found = rec_cover()
    except _OutOfBudget:
        return DecomposeResult(status="undecided", decomposition=None, nodes=nodes)
    if not found:
        return DecomposeResult(status="none", decomposition=None, nodes=nodes)
    return DecomposeResult(
        status="some", decomposition=Decomposition(parts=tuple(parts)), nodes=nodes
    )


def verify_decomposition(square: LatinSquare, decomposition: Decomposition) -> tuple[bool, str]:
    """True plus "ok", or False plus the first violation found."""
    n = square.n
    parts = decomposition.parts
    if len(parts) != n:
        return False, f"{len(parts)} parts, expected {n}"
    seen = [[0] * n for _ in range(n)]
    for k, part in enumerate(parts, start=1):
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
