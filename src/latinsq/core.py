"""Latin squares and their proper-colouring view.

A Latin square of order n is an n x n grid over the symbols 1..n with each
symbol exactly once per row and per column.  The same object can be read as
an optimal proper edge colouring of K_{n,n} (rows = one vertex class, columns
= the other, the symbol of a cell = the colour of the corresponding edge).
Everything here is 1-based at the API surface and immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


class ValidationError(ValueError):
    """A grid, colouring, or decomposition failed its defining check."""


@dataclass(frozen=True)
class LatinSquare:
    """An order-n Latin square; ``cells[r-1][c-1]`` is the symbol at (r, c).

    ``transversal_record`` keeps what the transversal calls learnt of this
    object, so that asking it again costs a lookup; it takes no part in
    equality, hashing or the text forms."""

    n: int
    cells: tuple[tuple[int, ...], ...]

    def symbol(self, row: int, col: int) -> int:
        return self.cells[row - 1][col - 1]

    def row(self, row: int) -> tuple[int, ...]:
        return self.cells[row - 1]

    def __str__(self) -> str:
        return square_to_text(self)

    @cached_property
    def transversal_record(self) -> dict:
        """What the transversal calls learnt of this square, filled by
        ``latinsq.transversal`` under at most four keys: "picks" (the
        engine's per-row input) and, written only by ``count_transversals``,
        "count" (the number of transversals), "first" (the cell mask of the
        lexicographically first transversal) and "dead" (the row-major index
        of the lowest cell of the rows that the counting search covers, the
        last ones, that it proved to lie on no transversal, so that no
        decomposition exists; a square whose dead cells all lie in the first
        rows, which the counting table covers, gets none).  It never holds
        the list of transversals.  It lives and dies with this object."""
        return {}


@dataclass(frozen=True)
class ProperColoring:
    """Optimal proper edge colouring of K_{n,n}.

    ``color[a-1][b-1]`` is the colour of the edge between a in the row class
    A and b in the column class B.  Properness (no two edges at a shared
    vertex alike) plus optimality (each colour on exactly n edges) make this
    matrix exactly a Latin square; the two types are kept distinct because
    the vocabulary differs (colours, matchings).
    """

    n: int
    color: tuple[tuple[int, ...], ...]

    def edge_color(self, a: int, b: int) -> int:
        return self.color[a - 1][b - 1]

    @cached_property
    def partners(self) -> "PartnerTable":
        """Integer-vertex lookups, built once per colouring: row a is vertex
        a - 1 and column b is vertex n + b - 1."""
        n = self.n
        m = 2 * n
        via = [-1] * (m * (n + 1))
        color = [0] * (m * m)
        for a, row in enumerate(self.color):
            for b, c in enumerate(row):
                w = n + b
                via[a * (n + 1) + c] = w
                via[w * (n + 1) + c] = a
                color[a * m + w] = color[w * m + a] = c
        return PartnerTable(via, color)

    @cached_property
    def link_counts(self) -> dict:
        """Link counts from one start to every end, filled by
        ``latinsq.links.count_links`` and keyed by (start vertex id,
        pattern); they live and die with this object."""
        return {}


class PartnerTable(NamedTuple):
    """``via[v * (n + 1) + c]`` is the vertex joined to v by colour c, and
    ``color[v * 2n + w]`` is the colour of the edge vw, 0 when v and w lie
    in one class."""

    via: list[int]
    color: list[int]


@dataclass(frozen=True)
class Transversal:
    """n cells of a square sharing no row, column, or symbol."""

    cells: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PartialTransversal:
    """k <= n cells sharing no row, column, or symbol."""

    cells: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class Decomposition:
    """n pairwise cell-disjoint transversals covering all n^2 cells."""

    parts: tuple[Transversal, ...]


def _trusted_square(grid: list[list[int]] | tuple) -> LatinSquare:
    # For generators that guarantee validity by construction; skips the scan.
    cells = tuple(tuple(row) for row in grid)
    return LatinSquare(n=len(cells), cells=cells)


def from_grid(grid) -> LatinSquare:
    """Validate a grid of symbols and return it as a LatinSquare.

    The grid must be square with int entries in 1..n (a bool is refused),
    no symbol repeated in a row or column.  The first violation in row-major
    scan order is reported.
    """
    rows = [list(r) for r in grid]
    n = len(rows)
    if n == 0:
        raise ValidationError("empty grid")
    for r, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ValidationError(f"row {r} has {len(row)} entries, expected {n}")
    seen_col = [0] * n
    for r in range(n):
        seen_row = 0
        for c in range(n):
            s = rows[r][c]
            if type(s) is not int or not (1 <= s <= n):
                raise ValidationError(f"cell ({r + 1},{c + 1}): symbol {s!r} not in 1..{n}")
            bit = 1 << s
            if seen_row & bit:
                raise ValidationError(f"cell ({r + 1},{c + 1}): symbol {s} repeated in row {r + 1}")
            if seen_col[c] & bit:
                raise ValidationError(f"cell ({r + 1},{c + 1}): symbol {s} repeated in column {c + 1}")
            seen_row |= bit
            seen_col[c] |= bit
    return _trusted_square(rows)


def cyclic_square(n: int) -> LatinSquare:
    """The addition-table square: cell (r, c) holds ((r + c - 2) mod n) + 1."""
    check_order(n)
    return _trusted_square([[(r + c) % n + 1 for c in range(n)] for r in range(n)])


def cyclic_decomposition(n: int) -> Decomposition:
    """Shifted-diagonal decomposition of cyclic_square(n); odd n only.

    Transversal t consists of the cells (r, ((r - 1 + t - 1) mod n) + 1):
    the leading diagonal shifted right by t - 1.  For even n the shifted
    diagonals repeat symbols, so even orders are rejected.
    """
    check_order(n)
    if n % 2 == 0:
        raise ValidationError(f"order {n} is even: shifted diagonals are not transversals")
    parts = []
    for t in range(n):
        cells = tuple((r + 1, (r + t) % n + 1) for r in range(n))
        parts.append(Transversal(cells=cells))
    return Decomposition(parts=tuple(parts))


def to_coloring(square: LatinSquare) -> ProperColoring:
    """Read a square as an optimal colouring of K_{n,n}."""
    return ProperColoring(n=square.n, color=square.cells)


def from_coloring(coloring: ProperColoring) -> LatinSquare:
    """Inverse of to_coloring; rejects non-proper or non-optimal colourings."""
    n = coloring.n
    counts = [0] * (n + 1)
    for row in coloring.color:
        for c in row:
            if not (1 <= c <= n):
                raise ValidationError(f"colour {c} out of range 1..{n}")
            counts[c] += 1
    for c in range(1, n + 1):
        if counts[c] != n:
            raise ValidationError(f"colour {c} used {counts[c]} times, expected {n} (not optimal)")
    try:
        return from_grid(coloring.color)
    except ValidationError as exc:
        raise ValidationError(f"colouring is not proper: {exc}") from exc


def check_transversal(square: LatinSquare, cells, partial: bool = False) -> str | None:
    """None if the cells form a (partial) transversal of the square, else the
    first violation in the given cell order, such as cells that are not a
    tuple or list, or a cell that is not a tuple or list of two ints (a bool
    is not taken for an int)."""
    n = square.n
    if not isinstance(cells, (tuple, list)):
        return f"cells {cells!r} are not a tuple or list"
    if not partial and len(cells) != n:
        return f"{len(cells)} cells, expected {n}"
    rows_seen: set[int] = set()
    cols_seen: set[int] = set()
    syms_seen: set[int] = set()
    for cell in cells:
        if not (isinstance(cell, (tuple, list)) and len(cell) == 2 and all(type(k) is int for k in cell)):
            return f"cell {cell!r} is not a (row, column) pair"
        r, c = cell
        if not (1 <= r <= n and 1 <= c <= n):
            return f"cell ({r},{c}) out of range"
        if r in rows_seen:
            return f"row {r} used twice"
        if c in cols_seen:
            return f"column {c} used twice"
        s = square.cells[r - 1][c - 1]
        if s in syms_seen:
            return f"symbol {s} used twice (cell ({r},{c}))"
        rows_seen.add(r)
        cols_seen.add(c)
        syms_seen.add(s)
    return None


def check_order(n) -> None:
    """Accept an int of at least 1 as a square's order: anything else, a
    bool too, raises TypeError, an int below 1 ValidationError."""
    if type(n) is not int:
        raise TypeError(f"order must be an int, got {type(n).__name__}")
    if n < 1:
        raise ValidationError("order must be at least 1")


def check_limit(limit) -> None:
    """Accept None or a non-negative int as a search's `limit`: anything
    else, a bool too, raises TypeError, a negative int ValueError."""
    if limit is not None:
        if type(limit) is not int:
            raise TypeError(f"limit must be an int or None, got {type(limit).__name__}")
        if limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")


# --- text formats -----------------------------------------------------------
#
# Square file: line 1 is n, then n lines of n space-separated symbols.
# Decomposition file: an n x n grid where cell (r, c) holds the 1-based index
# of the transversal containing it.  That grid is itself a Latin square
# orthogonal to the input square.


def square_to_text(square: LatinSquare) -> str:
    lines = [str(square.n)]
    lines += [" ".join(str(s) for s in row) for row in square.cells]
    return "\n".join(lines) + "\n"


def square_from_text(text: str) -> LatinSquare:
    tokens = text.split()
    if not tokens:
        raise ValidationError("empty square text")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise ValidationError(f"bad order field {tokens[0]!r}") from exc
    need = 1 + n * n
    if len(tokens) != need:
        raise ValidationError(f"expected {need} fields for order {n}, got {len(tokens)}")
    vals = []
    for t in tokens[1:]:
        try:
            vals.append(int(t))
        except ValueError as exc:
            raise ValidationError(f"bad symbol {t!r}") from exc
    grid = [vals[r * n:(r + 1) * n] for r in range(n)]
    return from_grid(grid)


def squares_from_text(text: str) -> list[LatinSquare]:
    """Parse a blank-line separated stream of square files."""
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [square_from_text(b) for b in blocks]


def decomposition_to_grid_text(square: LatinSquare, decomposition: Decomposition) -> str:
    n = square.n
    grid = [[0] * n for _ in range(n)]
    for t, part in enumerate(decomposition.parts, start=1):
        for (r, c) in part.cells:
            grid[r - 1][c - 1] = t
    if any(0 in row for row in grid):
        raise ValidationError("decomposition does not cover all cells")
    lines = [str(n)] + [" ".join(str(v) for v in row) for row in grid]
    return "\n".join(lines) + "\n"


def decomposition_from_grid_text(text: str) -> Decomposition:
    mate = square_from_text(text)  # the index grid must itself be a Latin square
    n = mate.n
    cells_of: dict[int, list[tuple[int, int]]] = {t: [] for t in range(1, n + 1)}
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            cells_of[mate.symbol(r, c)].append((r, c))
    parts = tuple(Transversal(cells=tuple(cells_of[t])) for t in range(1, n + 1))
    return Decomposition(parts=parts)
