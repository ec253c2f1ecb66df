from itertools import permutations

import pytest

from latinsq.core import Transversal, cyclic_square, from_grid, to_coloring
from latinsq.sampler import SeededRng, enumerate_all, enumerate_reduced, sample_uniform
from latinsq.transversal import (
    DEFAULT_CANDIDATE_THRESHOLD,
    Decomposition,
    ExactSearchRefused,
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


def test_undecided_on_tiny_budget():
    for budget in (0, 1):
        for threshold in (DEFAULT_CANDIDATE_THRESHOLD, 2):
            res = decompose(cyclic_square(9), node_budget=budget, candidate_threshold=threshold)
            assert (res.status, res.nodes) == ("undecided", budget)
            assert res.decomposition is None


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="node budget"):
        decompose(cyclic_square(3), node_budget=-5)
    with pytest.raises(ValueError, match="node budget"):
        decompose(cyclic_square(3), node_budget=-1, candidate_threshold=0)


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


@pytest.mark.parametrize("threshold", [DEFAULT_CANDIDATE_THRESHOLD, 2], ids=["eager", "lazy"])
def test_budget_boundary(threshold):
    sq = cyclic_square(9)
    full = decompose(sq, candidate_threshold=threshold)
    assert full.status == "some" and full.nodes > 1
    exact = decompose(sq, node_budget=full.nodes, candidate_threshold=threshold)
    assert (exact.status, exact.nodes) == (full.status, full.nodes)
    short = decompose(sq, node_budget=full.nodes - 1, candidate_threshold=threshold)
    assert (short.status, short.nodes) == ("undecided", full.nodes - 1)
    assert short.decomposition is None


def test_lazy_mode_matches_eager():
    for sq in [cyclic_square(5), cyclic_square(6), cyclic_square(9)]:
        eager = decompose(sq)
        lazy = decompose(sq, candidate_threshold=2)
        assert eager.status == lazy.status
        for res in (eager, lazy):
            if res.status == "some":
                ok, msg = verify_decomposition(sq, res.decomposition)
                assert ok, msg


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
