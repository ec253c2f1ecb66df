import pytest

from latinsq.core import (
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
from latinsq.sampler import enumerate_all
from latinsq.transversal import decompose, verify_decomposition


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


def test_every_exported_name_resolves():
    import latinsq

    missing = [name for name in latinsq.__all__ if not hasattr(latinsq, name)]
    assert missing == []
    assert len(set(latinsq.__all__)) == len(latinsq.__all__)
