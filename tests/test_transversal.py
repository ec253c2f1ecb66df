import gc
import random
import tracemalloc
from itertools import combinations, permutations, product

import pytest

from latinsq import transversal
from latinsq.core import Transversal, check_transversal, cyclic_square, from_grid, to_coloring
from latinsq.sampler import SeededRng, enumerate_all, enumerate_reduced, sample_uniform
from latinsq.transversal import (
    _CHUNK,
    _REINDEX_WIDTH,
    DEFAULT_CANDIDATE_THRESHOLD,
    DEFAULT_NODE_BUDGET,
    DecomposeResult,
    Decomposition,
    ExactSearchRefused,
    _index_space,
    _transversals,
    count_transversals,
    decompose,
    iter_transversals,
    max_partial_transversal,
    verify_decomposition,
)


def naive_count(square) -> int:
    n = square.n
    total = 0
    for perm in permutations(range(1, n + 1)):
        if len({square.symbol(r, perm[r - 1]) for r in range(1, n + 1)}) == n:
            total += 1
    return total


def naive_decomposable(square) -> bool:
    """Exhaustive search over transversal subsets (independent of Algorithm X)."""
    n = square.n
    ts = list(iter_transversals(square))
    masks = []
    for t in ts:
        m = 0
        for (r, c) in t.cells:
            m |= 1 << ((r - 1) * n + (c - 1))
        masks.append(m)
    full = (1 << (n * n)) - 1

    def rec(mask, start):
        if mask == full:
            return True
        # cover the first free cell
        free = (~mask & full)
        cell = (free & -free).bit_length() - 1
        for k in range(len(masks)):
            if masks[k] & mask:
                continue
            if not (masks[k] >> cell) & 1:
                continue
            if rec(mask | masks[k], 0):
                return True
        return False

    return rec(0, 0)


class _Enough(Exception):
    pass


def _reference_transversals(sym, allowed=None, out=None, limit=None):
    """Reference for _transversals: plain depth first over rows 0..n-1, the
    form the meet-in-the-middle engine replaced.  Same contract."""
    n = len(sym)
    if allowed is None:
        allowed = [(1 << n) - 1] * n

    def rec(r, colmask, symmask, cells):
        if r == n:
            if out is not None:
                out.append(cells)
                if len(out) == limit:
                    raise _Enough
            return 1
        total = 0
        for c in range(n):
            sb = sym[r][c]
            if allowed[r] >> c & 1 and not colmask >> c & 1 and not symmask & sb:
                total += rec(r + 1, colmask | 1 << c, symmask | sb, cells | 1 << r * n + c)
        return total

    try:
        return rec(0, 0, 0, 0)
    except _Enough:
        return len(out)


def _symbol_bits(square):
    return [[1 << s - 1 for s in row] for row in square.cells]


def _engine_picks(sym, allowed=None):
    """The reference's (sym, allowed) as the engine's picks: per row, column
    bit | symbol bit << n of each allowed cell, in column order."""
    n = len(sym)
    if allowed is None:
        allowed = [(1 << n) - 1] * n
    return [
        [1 << c | srow[c] << n for c in range(n) if allowed_r >> c & 1]
        for srow, allowed_r in zip(sym, allowed)
    ]


def _reference_squares():
    yield from enumerate_reduced(5)
    yield from list(enumerate_reduced(6))[::97]
    for n in (7, 8, 9):
        for t in range(3):
            yield sample_uniform(n, SeededRng(55).derive(n * 10 + t), burnin=300)
    for n in range(1, 10):
        yield cyclic_square(n)


@pytest.mark.parametrize("limit", [0, 1, 3, None, DEFAULT_CANDIDATE_THRESHOLD + 1])
def test_engine_matches_reference(limit):
    # counts and ordered masks, on whole squares and under random allowed
    # columns per row (as max_partial_transversal's barred symbols leave
    # them), and the same on squares with one or two rows replaced by a
    # constant-symbol row (as its relaxed rows are), whose rows are not
    # permutations
    rng, pick = random.Random(2024), random.Random(17)
    for k, sq in enumerate(_reference_squares()):
        n = sq.n
        sym = _symbol_bits(sq)
        columns = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n)]
        relaxed = sym[:]
        j = min(n, 1 + k % 2)
        for r, s in zip(pick.sample(range(n), j), pick.sample(range(n), j)):
            relaxed[r] = [1 << s] * n
        for array, allowed in product((sym, relaxed), (None, columns)):
            picks = _engine_picks(array, allowed)
            count = _reference_transversals(array, allowed)
            assert _transversals(picks) == count, (k, n, allowed)
            got, want = [], []
            assert (_transversals(picks, got, limit), got) == (
                _reference_transversals(array, allowed, want, limit), want
            ), (k, n, allowed)


def test_limit_stops_inside_a_join():
    # Past the table's size, so the engine joins; on cyclic order 9 some of
    # these limits fall between two masks of one table group.
    sym = _symbol_bits(cyclic_square(9))
    picks = _engine_picks(sym)
    every: list[int] = []
    assert _reference_transversals(sym, out=every) == 2025
    for limit in range(400, 500):
        got: list[int] = []
        assert (_transversals(picks, got, limit), got) == (limit, every[:limit]), limit


# The order-6 Tarry scan over all 9408 reduced squares: the histogram of
# transversal counts and the total decompose node count.
TARRY_HISTOGRAM = {0: 2100, 8: 7020, 24: 108, 32: 180}
TARRY_NODES = 2124


def test_order6_scan_pinned():
    histogram: dict[int, int] = {}
    nodes = 0
    for sq in enumerate_reduced(6):
        count = count_transversals(sq)
        histogram[count] = histogram.get(count, 0) + 1
        assert len(list(iter_transversals(sq))) == count
        res = decompose(sq)
        assert res.status == "none"
        nodes += res.nodes
    assert (histogram, nodes) == (TARRY_HISTOGRAM, TARRY_NODES)


def test_counts_pinned_at_orders_11_and_12():
    for n, t, expected in ((11, 0, 3430), (11, 1, 3527), (12, 0, 15898)):
        sq = sample_uniform(n, SeededRng(3).derive(t), burnin=2000)
        assert count_transversals(sq) == expected, (n, t)


def test_small_limit_at_order_30():
    # The first transversal only, with no table: one grown up to the
    # candidate threshold would take hundreds of megabytes here, and one
    # grown to n // 2 rows would not finish.
    sq = sample_uniform(30, SeededRng(3).derive(0), burnin=2000)
    tracemalloc.start()
    try:
        (t,) = iter_transversals(sq, limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check_transversal(sq, t.cells) is None
    assert peak < 1 << 20


def test_zero_transversals_for_even_cyclic():
    for m in (1, 2, 3):
        assert count_transversals(cyclic_square(2 * m)) == 0
        assert list(iter_transversals(cyclic_square(2 * m))) == []


def test_single_transversal_order_one():
    ts = list(iter_transversals(cyclic_square(1)))
    assert ts == [Transversal(cells=((1, 1),))]


def test_known_cyclic_counts():
    assert count_transversals(cyclic_square(3)) == 3
    assert count_transversals(cyclic_square(5)) == 15
    assert count_transversals(cyclic_square(7)) == 133


@pytest.mark.parametrize("n", [3, 4, 5])
def test_count_matches_naive_oracle_cyclic(n):
    assert count_transversals(cyclic_square(n)) == naive_count(cyclic_square(n))


def test_count_matches_naive_oracle_reduced_order4():
    for sq in enumerate_reduced(4):
        assert count_transversals(sq) == naive_count(sq)


def test_enumeration_is_canonical_and_duplicate_free():
    sq = cyclic_square(5)
    ts = list(iter_transversals(sq))
    cols = [tuple(c for (_r, c) in t.cells) for t in ts]
    assert cols == sorted(cols)
    assert len(set(cols)) == len(cols)
    assert list(iter_transversals(sq, limit=4)) == ts[:4]


def test_iter_transversals_limit_zero_and_negative():
    sq = cyclic_square(5)
    assert list(iter_transversals(sq, limit=0)) == []
    for limit in (-1, -2):
        with pytest.raises(ValueError, match="limit must be non-negative"):
            iter_transversals(sq, limit=limit)
    for limit in (1.5, 2.0, "3", True):
        with pytest.raises(TypeError, match="limit must be an int"):
            iter_transversals(cyclic_square(3), limit=limit)


def test_max_partial_sizes():
    assert max_partial_transversal(cyclic_square(2)).size == 1
    assert max_partial_transversal(cyclic_square(5)).size == 5
    assert max_partial_transversal(cyclic_square(6)).size == 5


def test_max_partial_refuses_large_orders():
    with pytest.raises(ExactSearchRefused, match="exact search refused"):
        max_partial_transversal(cyclic_square(10))


def test_max_partial_at_least_n_minus_1_reduced_order5():
    for sq in enumerate_reduced(5):
        assert max_partial_transversal(sq).size >= 4


def _max_partial_squares():
    for n in range(1, 6):
        yield from enumerate_reduced(n)
    yield from list(enumerate_reduced(6))[::97]
    for n in range(1, 9):
        yield cyclic_square(n)


def test_max_partial_is_a_maximum_partial_transversal():
    # Every partial transversal extends to a permutation of the columns, and
    # the cells of a permutation with distinct symbols form one, so the
    # maximum size is the most distinct symbols over all permutations.
    for k, sq in enumerate(_max_partial_squares()):
        n = sq.n
        p = max_partial_transversal(sq)
        assert check_transversal(sq, p.cells, partial=True) is None, (k, n, p.cells)
        best = max(len({sq.cells[r][perm[r]] for r in range(n)}) for perm in permutations(range(n)))
        assert p.size == best, (k, n)


def _max_partial_brute_force(square) -> int:
    """The most rows that take distinct columns and distinct symbols: the
    largest row subset with such a choice, tried from all n rows down."""
    n = square.n
    for size in range(n, 0, -1):
        for rows in combinations(range(n), size):
            for columns in permutations(range(n), size):
                if len({square.cells[r][c] for r, c in zip(rows, columns)}) == size:
                    return size
    return 0


def test_max_partial_matches_brute_force_over_row_subsets():
    squares = list(enumerate_all(4)) + list(enumerate_reduced(5))
    assert len(squares) == 576 + 56
    for k, sq in enumerate(squares):
        p = max_partial_transversal(sq)
        assert check_transversal(sq, p.cells, partial=True) is None, (k, p.cells)
        assert p.size == _max_partial_brute_force(sq), k


# The witnesses max_partial_transversal returns, as row-column digit pairs:
# for sample_uniform(7, SeededRng(2718).derive(t), burnin=700), t = 0..7, and
# for the cyclic squares of orders 6 and 8, which have no transversal.
MAX_PARTIAL_WITNESSES = [
    "11243247536675", "11243746556273", "11273542536674", "11223743566475",
    "11233247566475", "11253342576476", "11253243576476", "11243543566772",
    "1223344651", "12233445576871",
]


def test_max_partial_witnesses_pinned():
    squares = [sample_uniform(7, SeededRng(2718).derive(t), burnin=700) for t in range(8)]
    squares += [cyclic_square(6), cyclic_square(8)]
    got = ["".join(f"{r}{c}" for r, c in max_partial_transversal(sq).cells) for sq in squares]
    assert got == MAX_PARTIAL_WITNESSES


def test_decompose_cyclic9_and_tarry6():
    res = decompose(cyclic_square(9))
    assert res.status == "some"
    ok, msg = verify_decomposition(cyclic_square(9), res.decomposition)
    assert ok, msg
    assert decompose(cyclic_square(6)).status == "none"


def test_decompose_klein_four_group():
    sq = from_grid([[(r ^ c) + 1 for c in range(4)] for r in range(4)])
    res = decompose(sq)
    assert res.status == "some"
    assert verify_decomposition(sq, res.decomposition)[0]


def test_decompose_agrees_with_subset_oracle_order_le4():
    for n in (1, 2, 3):
        for sq in enumerate_all(n):
            assert (decompose(sq).status == "some") == naive_decomposable(sq)
    for sq in enumerate_all(4):
        assert (decompose(sq).status == "some") == naive_decomposable(sq)


def test_decompose_agrees_with_subset_oracle_order5_reduced():
    for sq in enumerate_reduced(5):
        assert (decompose(sq).status == "some") == naive_decomposable(sq)


def test_decompose_matches_rainbow_matching_oracle_order_le4():
    # resolvable iff the colouring splits into n disjoint rainbow perfect
    # matchings; rainbow matchings enumerated directly on the colouring
    def rainbow_matchings(col):
        n = col.n
        out = []

        def rec(a, used_b, used_c, acc):
            if a == n + 1:
                out.append(tuple(acc))
                return
            for b in range(1, n + 1):
                if b in used_b:
                    continue
                c = col.edge_color(a, b)
                if c in used_c:
                    continue
                acc.append((a, b))
                rec(a + 1, used_b | {b}, used_c | {c}, acc)
                acc.pop()

        rec(1, frozenset(), frozenset(), [])
        return out

    def splits(col) -> bool:
        n = col.n
        pms = rainbow_matchings(col)
        masks = []
        for pm in pms:
            m = 0
            for (a, b) in pm:
                m |= 1 << ((a - 1) * n + (b - 1))
            masks.append(m)
        full = (1 << (n * n)) - 1

        def rec(mask):
            if mask == full:
                return True
            free = (~mask & full)
            cell = (free & -free).bit_length() - 1
            return any(
                not (mk & mask) and (mk >> cell) & 1 and rec(mask | mk) for mk in masks
            )

        return rec(0)

    for sq in enumerate_all(4):
        assert (decompose(sq).status == "some") == splits(to_coloring(sq))


def test_decompose_output_always_verifies_on_random_samples():
    hits = 0
    for t in range(30):
        sq = sample_uniform(7, SeededRng(404).derive(t), burnin=400)
        res = decompose(sq)
        if res.status == "some":
            hits += 1
            ok, msg = verify_decomposition(sq, res.decomposition)
            assert ok, msg
    assert hits > 0


def test_decompose_checks_its_some_answer(monkeypatch):
    # a search that answers "some" with one transversal five times is caught
    first = next(iter_transversals(cyclic_square(5)))
    overlapping = DecomposeResult("some", Decomposition(parts=(first,) * 5), 1, 15)
    monkeypatch.setattr(transversal, "_exact_cover", lambda masks, n, budget: overlapping)
    with pytest.raises(AssertionError, match=r"invalid decomposition: cell \(1,1\) covered twice"):
        decompose(cyclic_square(5))


def test_undecided_on_tiny_budget():
    for budget in (0, 1):
        res = decompose(cyclic_square(9), node_budget=budget)
        assert (res.status, res.nodes) == ("undecided", budget)
        assert res.decomposition is None


def test_dead_root_answers_none_at_budget_zero():
    # 8 transversals, and some cell lies on none of them
    sq = from_grid([
        [1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 4, 5, 6, 1, 2],
        [4, 5, 6, 2, 3, 1], [5, 6, 2, 1, 4, 3], [6, 3, 1, 5, 2, 4],
    ])
    res = decompose(sq, node_budget=0)
    assert (res.status, res.nodes, res.decomposition) == ("none", 0, None)
    # counted on a fresh square, not read from decompose's record of this one
    assert res.candidates == count_transversals(from_grid(sq.cells)) == 8
    assert decompose(sq) == res


def test_covered_root_is_undecided_at_budget_zero():
    # 32 transversals that cover every cell, so only the search can answer
    sq = from_grid([
        [1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 4, 5, 6, 1, 2],
        [4, 3, 6, 5, 2, 1], [5, 6, 1, 2, 4, 3], [6, 5, 2, 1, 3, 4],
    ])
    res = decompose(sq, node_budget=0)
    assert (res.status, res.nodes, res.decomposition, res.candidates) == ("undecided", 0, None, 32)
    assert decompose(sq).status == "none"


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="node budget"):
        decompose(cyclic_square(3), node_budget=-5)
    # a float budget would never equal the node count, so it must not pass
    for budget in (1.5, 2.0, "3", None, True):
        with pytest.raises(TypeError, match="node budget must be an int"):
            decompose(cyclic_square(9), node_budget=budget)


# The first four squares of the order-10 Monte Carlo (master seed 777) with
# their answers and node counts.  Both pin the branching order: the open cell
# with the fewest live candidates, lowest row-major cell on ties, candidates
# tried in enumeration order.
PANEL = [("none", 27530), ("some", 1354), ("some", 15570), ("none", 20620)]


def test_branching_order_pinned_on_order10_panel():
    for t, expected in enumerate(PANEL):
        sq = sample_uniform(10, SeededRng(777).derive(t))
        res = decompose(sq)
        assert (res.status, res.nodes) == expected, t
        if res.status == "some":
            ok, msg = verify_decomposition(sq, res.decomposition)
            assert ok, msg


# n: (resolvable reduced squares, reduced squares, total nodes)
RESOLVABLE_REDUCED = {1: (1, 1, 1), 2: (0, 1, 0), 3: (1, 1, 3), 4: (1, 4, 4), 5: (6, 56, 30)}


@pytest.mark.parametrize("path", ["eager"])
def test_resolvable_counts_over_reduced_squares(path):
    for n, (some, total, nodes) in RESOLVABLE_REDUCED.items():
        results = [decompose(sq) for sq in enumerate_reduced(n)]
        assert sum(res.status == "some" for res in results) == some, n
        assert len(results) == total, n
        assert sum(res.nodes for res in results) == nodes, n


@pytest.mark.parametrize("path", ["eager"])
def test_budget_boundary(path):
    sq = cyclic_square(9)
    full = decompose(sq)
    assert full.status == "some" and full.nodes > 1
    exact = decompose(sq, node_budget=full.nodes)
    assert (exact.status, exact.nodes) == (full.status, full.nodes)
    short = decompose(sq, node_budget=full.nodes - 1)
    assert (short.status, short.nodes) == ("undecided", full.nodes - 1)
    assert short.decomposition is None


def test_budget_boundary_at_a_none():
    # A search that ends at exactly the budget answers "none", one node
    # short "undecided": order-10 panel trial 0.
    sq = sample_uniform(10, SeededRng(777).derive(0))
    nodes = 27530
    exact = decompose(sq, node_budget=nodes)
    assert (exact.status, exact.nodes) == ("none", nodes)
    short = decompose(sq, node_budget=nodes - 1)
    assert (short.status, short.nodes) == ("undecided", nodes - 1)


def test_undecided_past_the_candidate_threshold(monkeypatch):
    # Past the threshold decompose stops collecting and searches nothing: an
    # odd cyclic square of order 3 to 9 has more than 2 transversals.  An
    # even one has none, and order 1 has one, so both stay below it.
    monkeypatch.setattr(transversal, "DEFAULT_CANDIDATE_THRESHOLD", 2)
    undecided = DecomposeResult("undecided", None, 0, None)
    for n in range(2, 10):
        sq = cyclic_square(n)
        for budget in (DEFAULT_NODE_BUDGET, 0):
            res = decompose(sq, node_budget=budget)
            if n % 2:
                assert res == undecided, (n, budget)
            else:
                assert res == DecomposeResult("none", None, 0, 0), (n, budget)
        if n % 2:
            assert "count" not in sq.transversal_record, n
    res = decompose(cyclic_square(1))
    assert (res.status, res.nodes, res.candidates) == ("some", 1, 1)
    # A dead cell recorded by a count past the threshold does not answer for
    # decompose either.
    dead = next(sq for sq in enumerate_reduced(6) if count_transversals(sq) == 8)
    assert "dead" in dead.transversal_record
    assert decompose(dead) == undecided


def test_candidates_counted_on_the_eager_path():
    for t in range(len(PANEL)):
        sq = sample_uniform(10, SeededRng(777).derive(t))
        res = decompose(sq, node_budget=0)
        assert res.candidates == count_transversals(from_grid(sq.cells)), t
        # the panel's index spaces are too narrow to be re-indexed
        assert res.candidates <= _REINDEX_WIDTH, t
    assert decompose(cyclic_square(6)).candidates == 0
    assert decompose(cyclic_square(9)).candidates == 2025


# Squares sample_uniform(n, SeededRng(3).derive(t), burnin=2000) whose index
# spaces are re-indexed (3430, 3527 and 16 014 candidates), decomposed at a
# budget of 20 000 nodes: (n, t) -> status, nodes and each part's columns in
# base 13, as recorded before the search learnt to re-index.
REINDEXED = {
    (11, 0): ("some", 11113, [
        "1725469b8a3", "2b589346a71", "349782ba615", "4a86b132597", "58421ba7936", "63ba5914782",
        "756b3a89124", "82a367514b9", "91347825b6a", "a971256834b", "b619a473258",
    ]),
    (11, 1): ("some", 2564, [
        "1436b9a5278", "23a8479b516", "3862a57194b", "459b1367a82", "51893a246b7", "6a215b38794",
        "724561ba839", "8b17945236a", "97542683ba1", "a9b37846125", "b67a8219453",
    ]),
    (12, 24): ("some", 15949, [
        "1b237489c5a6", "2614ab5c7983", "38b915a2476c", "45c6b37a2198", "5a9b28c31674",
        "634752918acb", "74a2c618b359", "81359cb6a247", "976a814b5c32", "a98c37246b15",
        "bc514967382a", "c2786a3594b1",
    ]),
}


def test_reindexed_search_pinned_at_orders_11_and_12():
    for (n, t), expected in REINDEXED.items():
        sq = sample_uniform(n, SeededRng(3).derive(t), burnin=2000)
        res = decompose(sq, node_budget=20_000)
        assert res.candidates > _REINDEX_WIDTH, (n, t)
        parts = ["".join("0123456789abc"[c] for _r, c in part.cells) for part in res.decomposition.parts]
        assert (res.status, res.nodes, parts) == expected, (n, t)
        ok, msg = verify_decomposition(sq, res.decomposition)
        assert ok, msg


@pytest.mark.parametrize("factor", [1, 2])
def test_reindexing_at_any_width_keeps_the_search(monkeypatch, factor):
    # With no width floor the search re-indexes at orders 5 to 10 too, at
    # factor 1 at every node where a candidate died: the answers, node counts
    # and parts must match a search that never re-indexes, at full and at
    # partial budgets.
    squares = [sample_uniform(10, SeededRng(777).derive(1)), cyclic_square(7), cyclic_square(9)]
    squares += [sample_uniform(n, SeededRng(404).derive(t), burnin=400) for n in (5, 7, 8, 9) for t in range(4)]

    def search():
        return [
            (res.status, res.nodes, res.decomposition)
            for sq in squares
            for budget in (10, 300, DEFAULT_NODE_BUDGET)
            for res in [decompose(sq, node_budget=budget)]
        ]

    monkeypatch.setattr(transversal, "_REINDEX_WIDTH", 10**9)
    plain = search()
    monkeypatch.setattr(transversal, "_REINDEX_WIDTH", 0)
    monkeypatch.setattr(transversal, "_REINDEX_FACTOR", factor)
    assert search() == plain


def test_index_space_matches_a_plain_or():
    # Random candidates of 6 cells out of 64, more than one chunk of them at
    # the root and among those that miss the cells of one pick.
    rnd = random.Random(16)
    size = 64
    rows = [frozenset(rnd.sample(range(size), 6)) for _ in range(12_000)]
    covered = rows[0]
    live = [i for i, cells in enumerate(rows) if not cells & covered]
    assert len(live) > _CHUNK
    for ids in (range(len(rows)), live):
        space = [rows[i] for i in ids]
        plain = [0] * size
        for i, cells in enumerate(space):
            for cell in cells:
                plain[cell] |= 1 << i
        got_ids, got_rows, cellrows, keep = _index_space(ids, space, size)
        assert (got_ids, got_rows, keep) == (ids, space, [None] * len(space))
        assert cellrows == plain
    assert all(cellrows[cell] == 0 for cell in covered)


def test_order13_search_pinned():
    # sample_uniform(13, SeededRng(3).derive(0), burnin=2000) at a budget of
    # 2000 nodes, which re-indexes its 79 788 candidates; recorded before the
    # root and the re-indexed spaces came to share one builder
    sq = sample_uniform(13, SeededRng(3).derive(0), burnin=2000)
    res = decompose(sq, node_budget=2000)
    assert (res.status, res.nodes, res.candidates) == ("undecided", 2000, 79788)


def _record_squares():
    """Squares with their decompose budget: all reduced squares of orders 1
    to 5, every 97th of order 6, and the order-10 panel at budget 0."""
    for n in range(1, 6):
        for sq in enumerate_reduced(n):
            yield sq, DEFAULT_NODE_BUDGET
    for sq in list(enumerate_reduced(6))[::97]:
        yield sq, DEFAULT_NODE_BUDGET
    for t in range(len(PANEL)):
        yield sample_uniform(10, SeededRng(777).derive(t)), 0


def test_record_answers_alike_in_any_call_order():
    # Each call on one object, in every order, answers as it does on a fresh
    # copy of the square: the record only saves work.
    for sq, budget in _record_squares():
        calls = {
            "count": count_transversals,
            "decompose": lambda s: decompose(s, node_budget=budget),
            "iter": lambda s: list(iter_transversals(s)),
        }
        if sq.n <= transversal.DEFAULT_EXACT_BOUND:
            calls["partial"] = max_partial_transversal
        fresh = {name: call(from_grid(sq.cells)) for name, call in calls.items()}
        for order in permutations(calls):
            one = from_grid(sq.cells)
            assert {name: calls[name](one) for name in order} == fresh, (sq.cells, order)
            assert set(one.transversal_record) <= {"picks", "count", "first", "dead"}


def test_count_is_the_only_writer_of_the_record():
    # decompose, max_partial_transversal and iter_transversals, in any
    # order, leave only the picks; count_transversals stores the count, the
    # first transversal when there is one, and a dead cell for a count of 0.
    for sq, budget in _record_squares():
        readers = {
            "decompose": lambda s: decompose(s, node_budget=budget),
            "iter": lambda s: list(iter_transversals(s)),
        }
        if sq.n <= transversal.DEFAULT_EXACT_BOUND:
            readers["partial"] = max_partial_transversal
        for order in permutations(readers):
            one = from_grid(sq.cells)
            for name in order:
                readers[name](one)
            assert set(one.transversal_record) == {"picks"}, (sq.cells, order)
        count = count_transversals(one)
        record = one.transversal_record
        assert record["count"] == count, sq.cells
        assert ("first" in record) == (count > 0), sq.cells
        if count == 0:
            assert "dead" in record, sq.cells


def test_count_first_answers_alike_on_the_order6_scan():
    # The benchmark's call order on every reduced order-6 square answers as
    # decompose and max_partial_transversal do on fresh copies.  The counting
    # pass records a dead cell for 6804 of the 7020 squares with 8
    # transversals, so that decompose answers them without an enumeration.
    recorded = 0
    for sq in enumerate_reduced(6):
        count = count_transversals(sq)
        recorded += count > 0 and "dead" in sq.transversal_record
        res, partial = decompose(sq), max_partial_transversal(sq)
        assert res == decompose(from_grid(sq.cells)), sq.cells
        assert partial == max_partial_transversal(from_grid(sq.cells)), sq.cells
        assert res.candidates == count, sq.cells
    assert recorded == 6804


def _first_squares():
    for n in range(1, 11):
        yield cyclic_square(n)
        for t in range(3):
            yield sample_uniform(n, SeededRng(2323).derive(t), burnin=300)


def test_count_records_the_first_transversal_and_a_dead_cell():
    for sq in _first_squares():
        n = sq.n
        count = count_transversals(sq)
        record = sq.transversal_record
        first = next(iter_transversals(sq, limit=1), None)
        assert (first is None) == (count == 0), sq.cells
        if first is not None:
            assert transversal._transversal(record["first"], n) == first, sq.cells
        else:
            assert "first" not in record, sq.cells
        if "dead" in record:
            dead = divmod(record["dead"], n)
            cell = (dead[0] + 1, dead[1] + 1)
            assert all(cell not in t.cells for t in iter_transversals(sq)), sq.cells
            assert decompose(sq) == DecomposeResult("none", None, 0, count), sq.cells


def _fresh_count(sq):
    """The count and "first" of a fresh copy of sq, with no table kept."""
    transversal._count_memo = None
    copy = from_grid(sq.cells)
    return count_transversals(copy), copy.transversal_record.get("first")


def test_count_table_memo_never_serves_a_wrong_table(monkeypatch):
    # A count reuses the first rows' table of the last count whose first
    # rows were the same.  The order-6 squares in a shuffled order, among
    # order-5 and order-7 squares and picks that share an order-6 square's
    # first three rows but allow other cells below them, answer as fresh
    # copies and the reference do, with a dead cell on no transversal.
    rnd = random.Random(2929)
    scan = list(enumerate_reduced(6))
    squares = scan[:]
    rnd.shuffle(squares)
    others = list(enumerate_reduced(5))
    others += [sample_uniform(7, SeededRng(29).derive(t), burnin=300) for t in range(40)]
    items = []
    for k, sq in enumerate(squares):
        items.append(sq)
        if k % 50 == 0:
            items.append(others[k // 50 % len(others)])
        if k % 20 == 0:
            allowed = [63] * 3 + [rnd.getrandbits(6) | rnd.getrandbits(6) for _ in range(3)]
            items.append((_symbol_bits(sq), allowed))
    expected = [item if isinstance(item, tuple) else _fresh_count(item) for item in items]
    for item, want in zip(items, expected):
        if isinstance(item, tuple):
            sym, allowed = item
            record = {}
            every: list[int] = []
            count = _transversals(_engine_picks(sym, allowed), record=record)
            _reference_transversals(sym, allowed, every)
            assert (count, record.get("first")) == (len(every), every[0] if every else None), item
        else:
            count = count_transversals(item)
            record = item.transversal_record
            assert (count, record.get("first")) == want, item.cells
            every = [sum(1 << (r - 1) * item.n + c - 1 for r, c in t.cells) for t in iter_transversals(item)]
        if "dead" in record:
            assert not any(mask >> record["dead"] & 1 for mask in every), item
    # The scan in its own order grows one table for each of its 1064
    # distinct first three rows.
    grown = []
    grow = transversal._count_table
    monkeypatch.setattr(transversal, "_count_table", lambda rows, bound: grown.append(rows) or grow(rows, bound))
    transversal._count_memo = None
    for sq in scan:
        count_transversals(from_grid(sq.cells))
    assert len(grown) == len({sq.cells[:3] for sq in scan}) == 1064
    # Above DEFAULT_EXACT_BOUND no table is kept.
    assert transversal._count_memo is not None
    count_transversals(sample_uniform(10, SeededRng(29).derive(0), burnin=300))
    assert transversal._count_memo is None


def test_count_table_stops_at_its_bound(monkeypatch):
    # Under a small candidate threshold the count table stops before the row
    # that would take it past the threshold, and the search covers the rest:
    # the counts, "first" and dead cells answer as the reference does.
    squares = list(enumerate_reduced(5)) + [cyclic_square(n) for n in range(1, 10)]
    squares += [sample_uniform(n, SeededRng(3030).derive(t), burnin=300) for n in range(6, 10) for t in range(3)]
    expected = []
    for sq in squares:
        every: list[int] = []
        _reference_transversals(_symbol_bits(sq), out=every)
        expected.append(every)
    grow = transversal._count_table
    short = []

    def bounded(rows, bound):
        top, table = grow(rows, bound)
        assert len(table) <= bound, (bound, top)
        short.append(top < len(rows))
        return top, table

    monkeypatch.setattr(transversal, "_count_table", bounded)
    for threshold in (1, 2, 5, 50):
        monkeypatch.setattr(transversal, "DEFAULT_CANDIDATE_THRESHOLD", threshold)
        monkeypatch.setattr(transversal, "_count_memo", None)
        for sq, every in zip(squares, expected):
            copy = from_grid(sq.cells)
            record = copy.transversal_record
            assert count_transversals(copy) == len(every), (threshold, sq.cells)
            assert record.get("first") == (every[0] if every else None), (threshold, sq.cells)
            if "dead" in record:
                assert not any(mask >> record["dead"] & 1 for mask in every), (threshold, sq.cells)
    assert any(short) and not all(short)


def test_public_calls_leave_no_cyclic_garbage():
    # A self-referencing closure left behind as garbage costs the benchmark
    # its tail latency when the collector runs; each call must free
    # everything it made by reference counting alone.
    sq = sample_uniform(7, SeededRng(11).derive(0), burnin=500)
    calls = {
        "count": count_transversals,
        "decompose": decompose,
        "partial": max_partial_transversal,
        "iter": lambda s: list(iter_transversals(s)),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        shared = from_grid(sq.cells)
        for name, call in calls.items():
            call(from_grid(sq.cells))
            assert gc.collect() == 0, name
            call(shared)
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()


def test_truncated_runs_record_no_count(monkeypatch):
    # decompose past the candidate threshold and a limited enumeration stop
    # early, so neither may leave a count behind.
    monkeypatch.setattr(transversal, "DEFAULT_CANDIDATE_THRESHOLD", 2)
    past = cyclic_square(9)
    assert decompose(past).status == "undecided"
    limited = cyclic_square(9)
    assert len(list(iter_transversals(limited, limit=3))) == 3
    fresh = count_transversals(cyclic_square(9))
    assert count_transversals(past) == count_transversals(limited) == fresh == 2025


def test_verify_decomposition_reports():
    sq = cyclic_square(3)
    t = Transversal(cells=((1, 1), (2, 2), (3, 3)))
    ok, msg = verify_decomposition(sq, Decomposition(parts=(t, t, t)))
    assert not ok
    assert "covered twice" in msg
    ok, msg = verify_decomposition(sq, Decomposition(parts=(t,)))
    assert not ok and "parts" in msg
    bad = Transversal(cells=((1, 1), (2, 1), (3, 3)))
    ok, msg = verify_decomposition(sq, Decomposition(parts=(t, bad, t)))
    assert not ok and "column 1 used twice" in msg
    # the third diagonal twice leaves (1,2) uncovered before (1,3) is seen twice
    t2 = Transversal(cells=((1, 3), (2, 1), (3, 2)))
    assert verify_decomposition(sq, Decomposition(parts=(t, t2, t2))) == (False, "cell (1,2) uncovered")


def test_verify_decomposition_reports_parts_that_are_not_transversals():
    sq = cyclic_square(3)
    t = Transversal(cells=((1, 1), (2, 2), (3, 3)))
    plain = ((1, 2), (2, 3), (3, 1))
    for part in (plain, Transversal(cells=None), None, Transversal(cells=7)):
        ok, msg = verify_decomposition(sq, Decomposition(parts=(t, part, t)))
        assert not ok and msg == f"part 2: {part!r} is not a Transversal with a tuple of cells"
    assert verify_decomposition(sq, Decomposition(parts=(t, Transversal(cells=plain), t)))[0] is False


def _is_decomposition(square, parts) -> bool:
    """An oracle for verify_decomposition: n transversals covering every
    cell once, each cell a pair of ints in range."""
    n = square.n
    if not isinstance(parts, (tuple, list)):
        return False
    cells = [cell for part in parts for cell in part.cells]
    if len(parts) != n or any(len(part.cells) != n for part in parts):
        return False
    if not all(type(r) is int and type(c) is int and 1 <= r <= n and 1 <= c <= n for r, c in cells):
        return False
    for part in parts:
        rows, cols = zip(*part.cells)
        syms = [square.symbol(r, c) for r, c in part.cells]
        if len(set(rows)) < n or len(set(cols)) < n or len(set(syms)) < n:
            return False
    return len(set(cells)) == n * n


def test_verify_decomposition_answers_every_mutant():
    # Seeded mutations of valid decompositions: drop, duplicate or swap
    # parts or cells, move a cell out of range, or replace the parts by
    # something that is no tuple (None or an int).  Each mutant gets a
    # verdict, never an exception, and the verdict agrees with the oracle.
    rnd = random.Random(2525)
    squares = [cyclic_square(n) for n in (3, 5, 7)]
    squares += [sample_uniform(n, SeededRng(2525).derive(n), burnin=300) for n in (5, 6, 7, 8)]
    kinds = ("ok", "parts, expected", "cells, expected", "out of range", "used twice",
             "covered twice", "uncovered", "not a tuple of Transversals")
    verdicts = set()
    for sq in squares:
        res = decompose(sq)
        if res.status != "some":
            continue
        n = sq.n
        for _ in range(60):
            parts = [list(part.cells) for part in res.decomposition.parts]
            kind = rnd.choice(["drop part", "duplicate part", "swap parts", "drop cell",
                               "duplicate cell", "swap cells", "out of range", "no tuple"])
            k = rnd.randrange(n)
            if kind == "drop part":
                del parts[k]
            elif kind == "duplicate part":
                parts[rnd.randrange(n)] = list(parts[k])
            elif kind == "swap parts":
                j = rnd.randrange(n)
                parts[k], parts[j] = parts[j], parts[k]
            elif kind == "drop cell":
                del parts[k][rnd.randrange(n)]
            elif kind == "duplicate cell":
                parts[k][rnd.randrange(n)] = parts[k][rnd.randrange(n)]
            elif kind == "swap cells":
                j = rnd.randrange(n)
                a, b = rnd.randrange(n), rnd.randrange(n)
                parts[k][a], parts[j][b] = parts[j][b], parts[k][a]
            elif kind == "out of range":
                r, c = parts[k][0]
                parts[k][0] = rnd.choice([(0, c), (n + 1, c), (r, 0), (r, n + 1)])
            mutant = tuple(Transversal(cells=tuple(cells)) for cells in parts)
            if kind == "no tuple":
                mutant = rnd.choice([None, n])
            ok, msg = verify_decomposition(sq, Decomposition(parts=mutant))
            assert isinstance(msg, str) and ok == _is_decomposition(sq, mutant), (kind, msg)
            assert (msg == "ok") == ok, msg
            verdicts.add(next(kind for kind in kinds if kind in msg))
    assert verdicts == set(kinds), verdicts
