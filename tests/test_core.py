import random

import pytest

from latinsq.core import (
    Decomposition,
    Transversal,
    ValidationError,
    check_transversal,
    cyclic_decomposition,
    cyclic_square,
    decomposition_from_grid_text,
    decomposition_to_grid_text,
    from_coloring,
    from_grid,
    square_from_text,
    square_to_text,
    squares_from_text,
    to_coloring,
    ProperColoring,
)
from latinsq.sampler import SeededRng, enumerate_all, sample_uniform
from latinsq.transversal import decompose, iter_transversals, verify_decomposition


def test_from_grid_accepts_mod9_addition_table():
    grid = [[(r + c) % 9 + 1 for c in range(9)] for r in range(9)]
    sq = from_grid(grid)
    assert sq.n == 9
    assert sq.cells == cyclic_square(9).cells


def test_from_grid_order_one():
    assert from_grid([[1]]).n == 1


def test_from_grid_reports_first_violation_row_major():
    with pytest.raises(ValidationError, match=r"symbol 2 repeated in row 2"):
        from_grid([[1, 2], [2, 2]])
    with pytest.raises(ValidationError, match=r"cell \(2,1\): symbol 1 repeated in column 1"):
        from_grid([[1, 2], [1, 2]])
    with pytest.raises(ValidationError, match=r"not in 1..2"):
        from_grid([[1, 2], [2, 3]])
    # a bool is not an int symbol, though True == 1
    with pytest.raises(ValidationError, match=r"cell \(1,1\): symbol True not in 1..2"):
        from_grid([[True, 2], [2, True]])


def test_cyclic_square_small_values():
    assert cyclic_square(2).cells == ((1, 2), (2, 1))
    assert cyclic_square(3).cells == ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def test_cyclic_square_matches_addition_table():
    n = 9
    sq = cyclic_square(n)
    for r in range(n):
        for c in range(n):
            assert sq.cells[r][c] == (r + c) % n + 1


@pytest.mark.parametrize("n", [1, 3, 5, 9])
def test_cyclic_decomposition_validates(n):
    dec = cyclic_decomposition(n)
    ok, msg = verify_decomposition(cyclic_square(n), dec)
    assert ok, msg
    assert len(dec.parts) == n


def test_cyclic_decomposition_rejects_even():
    with pytest.raises(ValidationError):
        cyclic_decomposition(4)


def test_to_coloring_transcribes_cells():
    col = to_coloring(cyclic_square(2))
    assert col.edge_color(1, 1) == 1
    assert col.edge_color(1, 2) == 2
    assert col.edge_color(2, 1) == 2
    assert col.edge_color(2, 2) == 1


def test_coloring_round_trip_on_all_order4_squares():
    for sq in enumerate_all(4):
        col = to_coloring(sq)
        # properness: no repeated colour at any vertex
        for a in range(1, 5):
            assert len({col.edge_color(a, b) for b in range(1, 5)}) == 4
        for b in range(1, 5):
            assert len({col.edge_color(a, b) for a in range(1, 5)}) == 4
        assert from_coloring(col) == sq


def test_from_coloring_round_trip_cyclic6():
    sq = cyclic_square(6)
    assert from_coloring(to_coloring(sq)) == sq


def test_from_coloring_rejects_overused_color():
    bad = ProperColoring(n=2, color=((1, 1), (1, 2)))
    with pytest.raises(ValidationError, match="not optimal"):
        from_coloring(bad)


def test_from_coloring_rejects_improper():
    bad = ProperColoring(n=2, color=((1, 1), (2, 2)))
    with pytest.raises(ValidationError):
        from_coloring(bad)


def test_decomposition_induces_triple_perfect_matchings():
    # for resolvable order-4 squares the triple partition from a
    # decomposition consists of perfect matchings of the triple system
    checked = 0
    for sq in enumerate_all(4):
        res = decompose(sq)
        if res.status != "some":
            continue
        checked += 1
        for part in res.decomposition.parts:
            triples = {(r, c, sq.symbol(r, c)) for (r, c) in part.cells}
            assert len({a for (a, _, _) in triples}) == 4
            assert len({b for (_, b, _) in triples}) == 4
            assert len({c for (_, _, c) in triples}) == 4
    assert checked > 0


def test_transversal_checker_matches_rainbow_matching_view():
    # a cell set is a transversal iff the corresponding edges form a rainbow
    # perfect matching of the colouring
    import random

    rnd = random.Random(7)
    sq = cyclic_square(5)
    col = to_coloring(sq)
    for _ in range(200):
        cols = [rnd.randrange(1, 6) for _ in range(5)]
        cells = [(r + 1, cols[r]) for r in range(5)]
        is_transversal = check_transversal(sq, cells) is None
        edges = [(r, c, col.edge_color(r, c)) for (r, c) in cells]
        is_rainbow_pm = (
            len({c for (_, c, _) in edges}) == 5 and len({k for (_, _, k) in edges}) == 5
        )
        assert is_transversal == is_rainbow_pm


def test_transversal_checker_verdicts():
    sq = cyclic_square(5)
    diagonal = [(r, r) for r in range(1, 6)]
    assert check_transversal(sq, diagonal) is None
    assert check_transversal(sq, diagonal[:4]) == "4 cells, expected 5"
    assert check_transversal(sq, diagonal[:4], partial=True) is None
    assert check_transversal(sq, [(6, 1)] + diagonal[1:]) == "cell (6,1) out of range"
    assert check_transversal(sq, [(1, 1), (1, 2)] + diagonal[2:]) == "row 1 used twice"
    # a cell that is not a pair of ints gets a verdict in cell order
    for cell in ((5,), ("5", 4), (1.0, 1), (True, True), (1, 2, 3), 7, None):
        assert check_transversal(sq, [cell] + diagonal[1:]) == f"cell {cell!r} is not a (row, column) pair"
    assert check_transversal(sq, diagonal[:4] + [(5,)]) == "cell (5,) is not a (row, column) pair"
    assert check_transversal(sq, [(6, 1), (5,)], partial=True) == "cell (6,1) out of range"
    assert check_transversal(sq, [list(cell) for cell in diagonal]) is None


def _is_transversal(square, cells) -> bool:
    """An oracle for check_transversal: n pairs of ints in range, with no
    row, column or symbol twice."""
    n = square.n
    if not isinstance(cells, (tuple, list)) or len(cells) != n or not all(
        isinstance(cell, tuple) and len(cell) == 2 and all(type(k) is int for k in cell)
        for cell in cells
    ):
        return False
    if not all(1 <= r <= n and 1 <= c <= n for r, c in cells):
        return False
    rows, cols = zip(*cells)
    syms = {square.symbol(r, c) for r, c in cells}
    return len(set(rows)) == len(set(cols)) == len(syms) == n


def test_transversal_checker_answers_every_mutant():
    # Seeded mutations of transversals: drop, duplicate or swap cells or
    # coordinates, go out of range, break a cell's shape, or replace the
    # cells by something that is no list (None or an int).  Each mutant
    # gets a verdict, never an exception, and the verdict agrees with the
    # oracle.
    rnd = random.Random(2526)
    kinds = set()
    for t in range(40):
        n = rnd.randint(1, 8)
        sq = sample_uniform(n, SeededRng(2526).derive(t), burnin=50)
        first = next(iter_transversals(sq, limit=1), None)
        if first is None:
            continue
        for _ in range(25):
            cells = list(first.cells)
            kind = rnd.choice(["drop", "duplicate", "swap", "range", "shape", "no list"])
            k = rnd.randrange(n)
            r, c = cells[k]
            if kind == "drop":
                del cells[k]
            elif kind == "duplicate":
                cells[rnd.randrange(n)] = cells[k]
            elif kind == "swap":
                j = rnd.randrange(n)
                cells[k], cells[j] = (r, cells[j][1]), (cells[j][0], c)
            elif kind == "range":
                cells[k] = rnd.choice([(0, c), (n + 1, c), (r, 0), (r, n + 1), (-r, c)])
            elif kind == "shape":
                cells[k] = rnd.choice([(r,), (r, c, 1), (str(r), c), (r, float(c)), r, None])
            else:
                cells = rnd.choice([None, n])
            kinds.add(kind)
            verdict = check_transversal(sq, cells)
            assert (verdict is None) == _is_transversal(sq, cells), (kind, cells, verdict)
            assert verdict is None or isinstance(verdict, str)
    assert kinds == {"drop", "duplicate", "swap", "range", "shape", "no list"}


def test_square_text_round_trip():
    sq = cyclic_square(5)
    assert square_from_text(square_to_text(sq)) == sq
    two = square_to_text(sq) + "\n" + square_to_text(cyclic_square(3))
    assert [s.n for s in squares_from_text(two)] == [5, 3]


def test_square_text_rejects_garbage():
    with pytest.raises(ValidationError):
        square_from_text("2\n1 2\n2 x\n")
    with pytest.raises(ValidationError):
        square_from_text("3\n1 2 3\n")


def test_decomposition_grid_text_round_trip():
    sq = cyclic_square(9)
    dec = cyclic_decomposition(9)
    text = decomposition_to_grid_text(sq, dec)
    back = decomposition_from_grid_text(text)
    ok, msg = verify_decomposition(sq, back)
    assert ok, msg
    # the index grid is itself a Latin square orthogonal to the input:
    mate = square_from_text(text)
    seen_pairs = {
        (sq.symbol(r, c), mate.symbol(r, c))
        for r in range(1, 10)
        for c in range(1, 10)
    }
    assert len(seen_pairs) == 81


def _isotope(square, decomposition, rnd):
    """The square and decomposition under random row, column and symbol
    permutations."""
    n = square.n
    rows, cols, syms = (rnd.sample(range(1, n + 1), n) for _ in range(3))
    grid = [[0] * n for _ in range(n)]
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            grid[rows[r - 1] - 1][cols[c - 1] - 1] = syms[square.symbol(r, c) - 1]
    parts = tuple(
        Transversal(cells=tuple(sorted((rows[r - 1], cols[c - 1]) for (r, c) in part.cells)))
        for part in decomposition.parts
    )
    return from_grid(grid), Decomposition(parts=parts)


def test_text_round_trips_on_random_squares():
    rnd = random.Random(1729)
    for n in range(1, 10):
        sq = sample_uniform(n, SeededRng(1729).derive(n), burnin=50)
        text = square_to_text(sq)
        assert square_from_text(text) == sq
        # any whitespace between the fields reads the same
        spaced = "\r\n\t ".join(text.split()) + "\n\n"
        assert square_from_text(spaced) == sq
    for n in (1, 3, 5, 7, 9):
        sq, dec = _isotope(cyclic_square(n), cyclic_decomposition(n), rnd)
        assert verify_decomposition(sq, dec)[0]
        text = decomposition_to_grid_text(sq, dec)
        back = decomposition_from_grid_text(text)
        assert verify_decomposition(sq, back)[0]
        assert {p.cells for p in back.parts} == {p.cells for p in dec.parts}
        assert decomposition_to_grid_text(sq, back) == text


def _malformed(text, rnd):
    """The square text with one change that no square text survives."""
    tokens = text.split()
    n = int(tokens[0])
    kind = rnd.choice(("drop", "extra", "junk", "range", "order", "swap" if n > 1 else "drop"))
    k = rnd.randrange(1, len(tokens))
    if kind == "drop":
        del tokens[rnd.randrange(len(tokens))]
    elif kind == "extra":
        tokens.insert(rnd.randrange(len(tokens) + 1), str(rnd.randint(1, n)))
    elif kind == "junk":
        tokens[rnd.randrange(len(tokens))] = rnd.choice(("x", "1.5", "--1", "0x3", "nan", "1e3"))
    elif kind == "range":
        tokens[k] = str(rnd.choice((0, n + 1, -rnd.randint(1, n))))
    elif kind == "order":
        tokens[0] = str(n + rnd.choice((-1, 1)))
    else:
        # two cells of one row trade symbols, so both columns repeat one
        row = rnd.randrange(n)
        a, b = rnd.sample(range(n), 2)
        i, j = 1 + row * n + a, 1 + row * n + b
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return kind, " ".join(tokens)


def test_malformed_text_raises_validation_error():
    rnd = random.Random(1730)
    kinds = set()
    for t in range(300):
        n = rnd.randint(1, 6)
        sq = sample_uniform(n, SeededRng(1730).derive(t), burnin=20)
        for parse in (square_from_text, decomposition_from_grid_text):
            kind, bad = _malformed(square_to_text(sq), rnd)
            kinds.add(kind)
            with pytest.raises(ValidationError):
                parse(bad)
    assert kinds == {"drop", "extra", "junk", "range", "order", "swap"}
    for bad in ("", " \n", "-2\n1 2\n2 1\n", "0", "2\n1 2 2 1 1", "1\n1\n\n1\n1\n"):
        for parse in (square_from_text, decomposition_from_grid_text):
            with pytest.raises(ValidationError):
                parse(bad)


def test_every_exported_name_resolves():
    import latinsq

    missing = [name for name in latinsq.__all__ if not hasattr(latinsq, name)]
    assert missing == []
    assert len(set(latinsq.__all__)) == len(latinsq.__all__)
