import itertools
import random
import re

import pytest

from latinsq.core import cyclic_square, from_grid, to_coloring
from latinsq.links import enumerate_links, repeat_pattern
from latinsq.rainbow import (
    NearMatchingFamily,
    Switcher,
    apply_switcher,
    check_near_matching,
    family_from_json,
    find_switcher,
    is_le1_balanced,
    make_family,
    make_pair,
    pair_counts,
    validate_switcher,
)
from latinsq.sampler import SeededRng, sample_uniform
from latinsq.transversal import decompose


def perfect_family(square):
    res = decompose(square)
    assert res.status == "some"
    host = to_coloring(square)
    return make_family(host, [list(p.cells) for p in res.decomposition.parts])


def klein_power_square(bits):
    n = 1 << bits
    return from_grid([[(r ^ c) + 1 for c in range(n)] for r in range(n)])


def planted_family(square, x, y, k, seed_idx=0):
    """Family of two matchings carrying a repeat-pattern path from x to y."""
    host = to_coloring(square)
    links = enumerate_links(host, x, y, repeat_pattern(k), limit=seed_idx + 1)
    if len(links) <= seed_idx:
        return None
    emb = links[seed_idx].embedding
    edges = []
    for t in range(2 * k):
        pa, pb = emb[t], emb[t + 1]
        (a, b) = (pa[1], pb[1]) if pa[0] == "A" else (pb[1], pa[1])
        edges.append((a, b))
    return make_family(host, [edges[0::2], edges[1::2]])


def test_full_rainbow_matchings_family_is_valid():
    fam = perfect_family(klein_power_square(3))
    ok, report = check_near_matching(fam)
    assert ok and report == []


def test_repeated_colour_is_reported():
    sq = cyclic_square(4)
    host = to_coloring(sq)
    # edges (1,1) and (2,4) both have colour 1 in the cyclic square
    fam = make_family(host, [[(1, 1), (2, 4)]])
    ok, report = check_near_matching(fam)
    assert not ok
    assert any("repeated colour" in r[2] for r in report)


def test_exception_sets_checked():
    sq = klein_power_square(2)
    host = to_coloring(sq)
    full = perfect_family(sq).matchings[0]  # one rainbow perfect matching
    fam = make_family(host, [[(a, b) for (a, b, _c) in full]])
    ok, _ = check_near_matching(fam)
    assert ok
    # delete one edge and declare its two endpoints degree-0
    (da, db, _dc) = full[-1]
    edges = [(a, b) for (a, b, _c) in full[:-1]]
    fam2 = make_family(host, [edges], deg0=[[("A", da), ("B", db)]], deg2=[[]])
    ok2, rep2 = check_near_matching(fam2)
    assert ok2, rep2
    # wrong exception set: vertex has degree 1, required 0
    (ea, _eb, _ec) = full[0]
    fam3 = make_family(host, [edges], deg0=[[("A", ea)]], deg2=[[]])
    ok3, rep3 = check_near_matching(fam3)
    assert not ok3
    assert any(v == ("A", ea) for (_i, v, _m) in rep3)


def test_overlapping_matchings_reported():
    host = to_coloring(klein_power_square(2))
    fam = make_family(host, [[(1, 1)], [(1, 1)]])
    ok, report = check_near_matching(fam)
    assert not ok
    assert any("also in matching" in r[2] for r in report)


def test_out_of_range_input_reported():
    # make_family range-checks, but the checkers must answer on a family
    # built directly: edge (0, 1) would read row 0 as the last row, and
    # (6, 1) or (1, 6) lies past the host.
    host = to_coloring(cyclic_square(5))

    def family(edges, deg0=()):
        return NearMatchingFamily(host, (tuple(edges),), (frozenset(deg0),), (frozenset(),))

    assert check_near_matching(family([(0, 1, 5)])) == (
        False, [(1, ("A", 0), "edge (0,1) out of range for order 5")]
    )
    assert check_near_matching(family([], [("A", 9)])) == (
        False, [(1, ("A", 9), "bad vertex ('A', 9) for order 5")]
    )
    assert check_near_matching(family([(6, 1, 1)])) == (
        False, [(1, ("A", 6), "edge (6,1) out of range for order 5")]
    )
    fam = make_family(host, [[(1, 1), (2, 2)], [(1, 2), (2, 3)]])
    sw = Switcher(1, 2, ("A", 1), ("A", 2), ((1, 6, 1), (2, 6, 2), (2, 1, 2), (1, 1, 1)))
    assert validate_switcher(fam, sw) == "edge (1,6) out of range for order 5"
    # make_family's own checks: True equals 1 but is no row or column index
    with pytest.raises(ValueError, match=re.escape("edge (True,2) out of range for order 5")):
        make_family(host, [[(True, 2)]])
    with pytest.raises(ValueError, match=re.escape("bad vertex ('B', True) for order 5")):
        make_family(host, [[(1, 2)]], deg0=[[("B", True)]])


def test_missing_exception_sets_reported():
    # a family built directly with fewer (or more) exception sets than
    # matchings: each missing set is reported and read as empty
    host = to_coloring(cyclic_square(5))
    edge = (1, 1, host.edge_color(1, 1))
    assert check_near_matching(NearMatchingFamily(host, ((edge,),), (), ())) == (False, [
        (1, None, "no deg0 set for matching 1"),
        (1, None, "no deg2 set for matching 1"),
    ])
    zero = frozenset({("A", 2)})
    assert check_near_matching(NearMatchingFamily(host, ((edge,),), (zero,), ())) == (False, [
        (1, None, "no deg2 set for matching 1"),
    ])
    assert check_near_matching(
        NearMatchingFamily(host, ((edge,),), (zero, frozenset()), (frozenset(),))
    ) == (False, [(2, None, "deg0 set 2 has no matching")])


def test_make_family_reads_an_empty_exception_list_as_given():
    # an empty deg0 or deg2 list holds no set for either matching, as
    # [[]] holds one too few; only None means "no exception sets"
    host = to_coloring(cyclic_square(5))
    for given in ([], [[]]):
        for key in ("deg0", "deg2"):
            with pytest.raises(ValueError, match="exception set lists must match"):
                make_family(host, [[(1, 1)], [(2, 2)]], **{key: given})
    assert make_family(host, [[(1, 1)], [(2, 2)]]).deg0 == (frozenset(), frozenset())


def test_malformed_edge_reported():
    # an edge given as a pair, not an (a, b, colour) triple, is reported and
    # takes no part in the degree checks
    host = to_coloring(cyclic_square(5))
    fam = NearMatchingFamily(host, (((1, 1), (2, 2, 3)),), (frozenset(),), (frozenset(),))
    assert check_near_matching(fam) == (
        False, [(1, None, "edge (1, 1) is not an (a, b, colour) triple")]
    )
    # validate_switcher reports a path edge of the wrong shape the same way
    fam = make_family(host, [[(1, 1), (2, 2)], [(1, 2), (2, 3)]])
    for edge in ((1, 1), (1, 1, 1, 1), 7):
        sw = Switcher(1, 2, ("A", 1), ("A", 2), (edge, (2, 2, 3), (2, 3, 5), (1, 2, 2)))
        assert validate_switcher(fam, sw) == f"edge {edge!r} is not an (a, b, colour) triple"


def test_switcher_faults_reported():
    # every fault of validate_switcher on the cyclic square of order 5,
    # whose cell (a, b) has colour (a + b - 2) % 5 + 1; each path runs from
    # A1 to A2 through B b1, A a2 and B b2
    host = to_coloring(cyclic_square(5))

    def path(*cells):
        return tuple((a, b, host.edge_color(a, b)) for a, b in cells)

    def verdict(path_, i=1, j=2, x=("A", 1), y=("A", 2), odd=None, even=None):
        odd = [e[:2] for e in path_[0::2]] if odd is None else odd
        even = [e[:2] for e in path_[1::2]] if even is None else even
        return validate_switcher(make_family(host, [odd, even]), Switcher(i, j, x, y, path_))

    # no path of length 4 is a switcher: its second edge meets both odd
    # edges, so its colour is missing from the odd half
    fine = path((1, 2), (3, 2), (3, 1), (2, 1))  # colours 2, 4, 3, 2
    odd_twice = path((1, 1), (3, 1), (3, 4), (2, 4))  # odd colours 1, 1
    even_twice = path((1, 1), (3, 1), (3, 2), (2, 2))  # even colours 3, 3
    assert verdict(fine, i=1, j=1) == "bad matching indices (1,1)"
    assert verdict(fine, i=0) == "bad matching indices (0,2)"
    assert verdict(fine, j=3) == "bad matching indices (1,3)"
    endpoints = "endpoints must be distinct vertices of the same class"
    assert verdict(fine, y=("A", 1)) == endpoints
    assert verdict(fine, y=("B", 2)) == endpoints
    assert verdict(fine[:3]) == "path length 3 is not an even number >= 4"
    assert verdict(fine[:2]) == "path length 2 is not an even number >= 4"
    assert verdict(fine[1:2] + fine[0:1] + fine[2:]) == "edge (3,2) does not continue the path at ('A', 1)"
    assert verdict(((1, 2, 3),) + fine[1:]) == "edge (1,2) colour 3 disagrees with host"
    assert verdict(fine, y=("A", 4)) == "path ends at ('A', 2), not ('A', 4)"
    assert verdict(path((1, 1), (3, 1), (3, 1), (2, 1))) == "path revisits a vertex"
    assert verdict(fine, odd=[(3, 1)]) == "odd edge (1, 2, 2) not in matching 1"
    assert verdict(fine, even=[(3, 2)]) == "even edge (2, 1, 2) not in matching 2"
    assert verdict(odd_twice) == "odd half is not rainbow"
    assert verdict(even_twice) == "even half is not rainbow"
    assert verdict(fine) == "odd and even halves use different colour sets"


def test_switcher_mutants_get_a_verdict():
    # Seeded mutations of a valid switcher's path: drop, duplicate or swap
    # edges, recolour one, or move an endpoint out of range.  None of them
    # is a switcher, and each gets a fault, never an exception.
    sq = sample_uniform(8, SeededRng(17).derive(0), burnin=2000)
    fam = planted_family(sq, ("A", 1), ("A", 5), 3)
    sw = find_switcher(fam, 1, 2, ("A", 1), ("A", 5), max_len=6)
    assert validate_switcher(fam, sw) is None
    rnd = random.Random(2527)
    kinds = set()
    for _ in range(300):
        edges = list(sw.path)
        k = rnd.randrange(len(edges))
        a, b, c = edges[k]
        kind = rnd.choice(["drop", "duplicate", "swap", "colour", "range"])
        if kind == "drop":
            del edges[k]
        elif kind == "duplicate":
            edges.insert(k, edges[k])
        elif kind == "swap":
            j = rnd.choice([j for j in range(len(edges)) if j != k])
            edges[k], edges[j] = edges[j], edges[k]
        elif kind == "colour":
            edges[k] = (a, b, c % 8 + 1)
        else:
            edges[k] = rnd.choice([(0, b, c), (9, b, c), (a, 0, c), (a, 9, c)])
        kinds.add(kind)
        mutant = Switcher(sw.i, sw.j, sw.x, sw.y, tuple(edges))
        assert isinstance(validate_switcher(fam, mutant), str), (kind, edges)
    assert kinds == {"drop", "duplicate", "swap", "colour", "range"}


def test_near_matching_faults_reported():
    host = to_coloring(cyclic_square(5))
    none = frozenset()

    def check(edges, deg0=none, deg2=none):
        return check_near_matching(NearMatchingFamily(host, (tuple(edges),), (deg0,), (deg2,)))

    assert check([(1, 1, 2)]) == (False, [(1, ("A", 1), "edge (1,1) colour 2 disagrees with host")])
    both = frozenset({("A", 3)})
    assert check([(1, 1, 1)], both, both) == (False, [
        (1, ("A", 3), "vertex in both exception sets"),
        (1, ("A", 3), "degree 0, required 2"),
    ])
    two = frozenset({("A", 1)})
    assert check([(1, 1, 1), (1, 2, 2)], deg2=two) == (True, [])
    assert check([(1, 1, 1)], deg2=two) == (False, [(1, ("A", 1), "degree 1, required 2")])
    assert check([(1, 1, 1), (1, 2, 2)]) == (False, [(1, ("A", 1), "degree 2 > 1")])


def test_near_matching_mutants_get_a_verdict():
    # Seeded mutations of a valid family: drop, duplicate or swap edges, or
    # columns between edges, recolour one, go out of range, or add a vertex
    # to an exception set.  Each gets a (bool, list) verdict whose flag
    # says whether the list is empty; the mutations that must break the
    # family are reported.
    fam = perfect_family(cyclic_square(7))
    rnd = random.Random(2528)
    kinds = set()
    for _ in range(300):
        matchings = [list(m) for m in fam.matchings]
        deg0, deg2 = list(fam.deg0), list(fam.deg2)
        i = rnd.randrange(fam.m)
        k = rnd.randrange(len(matchings[i]))
        a, b, c = matchings[i][k]
        kind = rnd.choice(["drop", "duplicate", "swap", "swap columns", "colour", "range", "deg0", "deg2"])
        broken = kind not in ("drop", "swap")
        if kind == "drop":
            del matchings[i][k]
        elif kind == "duplicate":
            matchings[i].append(matchings[i][k])
        elif kind == "swap":
            j = rnd.randrange(fam.m)
            matchings[i], matchings[j] = matchings[j], matchings[i]
        elif kind == "swap columns":
            k2 = (k + 1) % len(matchings[i])
            a2, b2, c2 = matchings[i][k2]
            matchings[i][k], matchings[i][k2] = (a, b2, c), (a2, b, c2)
        elif kind == "colour":
            matchings[i][k] = (a, b, c % 7 + 1)
        elif kind == "range":
            matchings[i][k] = rnd.choice([(0, b, c), (8, b, c), (a, 0, c), (a, 8, c)])
        elif kind == "deg0":
            deg0[i] = deg0[i] | {("A", a)}  # a vertex of degree 1
        else:
            deg2[i] = deg2[i] | {rnd.choice([("A", a), ("B", 8), ("C", 1)])}
        kinds.add(kind)
        mutant = NearMatchingFamily(fam.base, tuple(map(tuple, matchings)), tuple(deg0), tuple(deg2))
        ok, report = check_near_matching(mutant)
        assert ok == (report == []) and all(isinstance(r[2], str) for r in report), (kind, report)
        assert ok != broken, (kind, report)
    assert kinds == {"drop", "duplicate", "swap", "swap columns", "colour", "range", "deg0", "deg2"}


def test_find_switcher_length_two_impossible():
    fam = perfect_family(klein_power_square(3))
    assert find_switcher(fam, 1, 2, ("A", 1), ("A", 2), max_len=2) is None


def test_find_switcher_bad_arguments():
    fam = perfect_family(klein_power_square(3))
    with pytest.raises(ValueError):
        find_switcher(fam, 1, 1, ("A", 1), ("A", 2))
    with pytest.raises(ValueError):
        find_switcher(fam, 1, 2, ("A", 1), ("A", 1))
    with pytest.raises(ValueError):
        find_switcher(fam, 1, 2, ("A", 1), ("B", 2))


def test_switcher_ends_get_one_verdict():
    # validate_switcher reports, and find_switcher raises ValueError with,
    # the same first fault of the indices and endpoints, whatever their type
    host = to_coloring(cyclic_square(5))
    fam = make_family(host, [[(1, 2), (3, 1)], [(3, 2), (2, 1)]])
    path = tuple((a, b, host.edge_color(a, b)) for a, b in ((1, 2), (3, 2), (3, 1), (2, 1)))
    cases = [
        (dict(i="1"), "bad matching indices ('1',2)"),
        (dict(i=1.5), "bad matching indices (1.5,2)"),
        (dict(i=True), "bad matching indices (True,2)"),
        (dict(j=None), "bad matching indices (1,None)"),
        (dict(j=3), "bad matching indices (1,3)"),
        (dict(x=None), "bad vertex None for order 5"),
        (dict(x=("A", "1")), "bad vertex ('A', '1') for order 5"),
        (dict(x=("A", True)), "bad vertex ('A', True) for order 5"),
        (dict(y=("C", 2)), "bad vertex ('C', 2) for order 5"),
        (dict(y=["A", 2]), "bad vertex ['A', 2] for order 5"),
        (dict(y=("A", 6)), "bad vertex ('A', 6) for order 5"),
        (dict(y=("B", 2)), "endpoints must be distinct vertices of the same class"),
        (dict(y=("A", 1)), "endpoints must be distinct vertices of the same class"),
    ]
    for change, fault in cases:
        ends = {"i": 1, "j": 2, "x": ("A", 1), "y": ("A", 2), **change}
        assert validate_switcher(fam, Switcher(path=path, **ends)) == fault, change
        with pytest.raises(ValueError) as exc:
            find_switcher(fam, **ends)
        assert str(exc.value) == fault, change
    # good ends pass on to the path checks
    fault = validate_switcher(fam, Switcher(1, 2, ("A", 1), ("A", 2), path))
    assert fault == "odd and even halves use different colour sets"


def test_planted_switcher_found_and_applied():
    sq = sample_uniform(8, SeededRng(17).derive(0), burnin=2000)
    fam = planted_family(sq, ("A", 1), ("A", 5), 3)
    assert fam is not None
    sw = find_switcher(fam, 1, 2, ("A", 1), ("A", 5), max_len=6)
    assert sw is not None
    assert validate_switcher(fam, sw) is None
    assert len(sw.path) == 6
    after = apply_switcher(fam, sw)
    # multiset of edges across both matchings preserved
    assert sorted(fam.matchings[0] + fam.matchings[1]) == sorted(
        after.matchings[0] + after.matchings[1]
    )
    # colour sets preserved per matching
    for k in range(2):
        assert {c for (_a, _b, c) in fam.matchings[k]} == {
            c for (_a, _b, c) in after.matchings[k]
        }
    # involution restores exactly
    again = apply_switcher(after, sw.transposed())
    assert again == fam


def test_apply_switcher_rejects_inconsistent():
    sq = sample_uniform(8, SeededRng(18).derive(0), burnin=2000)
    fam = planted_family(sq, ("A", 2), ("A", 6), 3)
    assert fam is not None
    sw = find_switcher(fam, 1, 2, ("A", 2), ("A", 6), max_len=6)
    assert sw is not None
    # a switcher planted in a different family does not validate here
    other = planted_family(sq, ("A", 2), ("A", 6), 3, seed_idx=1)
    if other is not None:
        sw_other = find_switcher(other, 1, 2, ("A", 2), ("A", 6), max_len=6)
        if sw_other is not None and sw_other.path != sw.path:
            with pytest.raises(ValueError, match="inconsistent"):
                apply_switcher(fam, sw_other)


def test_switcher_degree_shift():
    sq = sample_uniform(8, SeededRng(19).derive(0), burnin=2000)
    fam = planted_family(sq, ("B", 1), ("B", 4), 3)
    assert fam is not None
    sw = find_switcher(fam, 1, 2, ("B", 1), ("B", 4), max_len=6)
    assert sw is not None
    after = apply_switcher(fam, sw)

    def deg(edges, v):
        return sum(1 for (a, b, _c) in edges if ("A", a) == v or ("B", b) == v)

    x, y = ("B", 1), ("B", 4)
    assert deg(after.matchings[0], x) == deg(fam.matchings[0], x) - 1
    assert deg(after.matchings[1], x) == deg(fam.matchings[1], x) + 1
    assert deg(after.matchings[0], y) == deg(fam.matchings[0], y) + 1
    assert deg(after.matchings[1], y) == deg(fam.matchings[1], y) - 1
    # all other vertices keep their degrees
    for side in "AB":
        for t in range(1, 9):
            v = (side, t)
            if v in (x, y):
                continue
            for k in range(2):
                assert deg(after.matchings[k], v) == deg(fam.matchings[k], v)


def test_family_json_round_trip():
    sq = klein_power_square(3)
    fam = perfect_family(sq)
    text = fam.to_json()
    back = family_from_json(text, fam.base)
    assert back == fam


def test_le1_balance_cases():
    empty = frozenset()
    assert is_le1_balanced(empty, 1, "u")
    one = frozenset([make_pair(1, "u", 2, "v")])
    assert not is_le1_balanced(one, 1, "u")
    assert not is_le1_balanced(one, 2, "v")
    both = frozenset([make_pair(1, "u", 2, "v"), make_pair(1, "v", 2, "u")])
    assert is_le1_balanced(both, 1, "u")
    assert is_le1_balanced(both, 2, "v")
    assert is_le1_balanced(both, 1, "v")
    # unrelated slots stay balanced
    assert is_le1_balanced(both, 3, "u")


def test_pair_counts_orientation():
    pairs = [make_pair(1, "u", 2, "v")]
    assert pair_counts(pairs, 1, "u") == (1, 0)
    assert pair_counts(pairs, 2, "v") == (1, 0)
    assert pair_counts(pairs, 2, "u") == (0, 1)
    assert pair_counts(pairs, 1, "v") == (0, 1)


def _oracle_counts(pairs, i, u):
    out = sum((i, u) in p for p in pairs)
    inc = sum(any(x[1] == u and y[0] == i and y[1] != u for x, y in itertools.permutations(p)) for p in pairs)
    return out, inc


def test_pair_counts_names_a_malformed_pair():
    good = make_pair(1, "u", 2, "v")
    for bad in [frozenset({(1, 2)}), frozenset({(1, "u"), (2, "v"), (3, "w")}), frozenset({1, 2}), None,
                ((1, "u"), (2, "v", 3)), ((1, "u"), 5)]:
        for check in (pair_counts, is_le1_balanced):
            with pytest.raises(ValueError, match=re.escape(f"pair {bad!r}: not two (index, vertex) slots")):
                check([good, bad], 1, "u")


def test_le1_balance_mutants_get_a_verdict():
    # Seeded mutations of a balanced collection (couples {(i,u),(j,v)},
    # {(i,v),(j,u)} on disjoint vertices): drop or duplicate a pair, swap a
    # pair's vertices, move a slot out of range, or make a pair malformed
    # (a slot dropped or added, an element that is no slot).  Each gets the
    # oracle's verdict on every slot, or a ValueError naming its malformed
    # pair, also one of two-character strings, which unpack like slots; the
    # mutations that must unbalance a slot do.
    vertices = [(side, k) for side in "AB" for k in range(1, 5)]
    slots = [(i, u) for i in range(4) for u in [*vertices, ("C", 9)]]
    rnd = random.Random(2529)
    kinds = set()
    for _ in range(200):
        order = rnd.sample(vertices, len(vertices))
        pairs = []
        for u, v in zip(order[::2], order[1::2]):
            i, j = rnd.sample(range(1, 4), 2)
            pairs += [make_pair(i, u, j, v), make_pair(i, v, j, u)]
        assert all(is_le1_balanced(pairs, i, u) for i, u in slots)
        k = rnd.randrange(len(pairs))
        (i, u), (j, v) = pairs[k]
        kind = rnd.choice(["drop", "duplicate", "swap", "range", "drop slot", "add slot", "no slot"])
        if kind == "drop":
            del pairs[k]
        elif kind == "duplicate":
            pairs.insert(k, pairs[k])
        elif kind == "swap":
            pairs[k] = make_pair(i, v, j, u)
        elif kind == "range":
            pairs[k] = rnd.choice([make_pair(0, u, j, v), make_pair(i, ("C", 9), j, v)])
        elif kind == "drop slot":
            pairs[k] = frozenset({(i, u)})
        elif kind == "add slot":
            pairs[k] = pairs[k] | {(0, u)}
        else:
            pairs[k] = rnd.choice([None, 7, frozenset({i, j}), frozenset({(i, u), (j, v, 1)}),
                                   frozenset({"ab", "cd"})])
        kinds.add(kind)
        if kind in ("drop slot", "add slot", "no slot"):
            message = re.escape(f"pair {pairs[k]!r}: not two (index, vertex) slots")
            for check in (pair_counts, is_le1_balanced):
                with pytest.raises(ValueError, match=message):
                    check(pairs, *rnd.choice(slots))
            continue
        verdicts = []
        for i, u in slots:
            counts = _oracle_counts(pairs, i, u)
            assert pair_counts(pairs, i, u) == counts, (kind, pairs, i, u)
            verdicts.append(is_le1_balanced(pairs, i, u))
            assert verdicts[-1] == (counts in ((0, 0), (1, 1))), (kind, pairs, i, u)
        assert not all(verdicts), (kind, pairs)
    assert kinds == {"drop", "duplicate", "swap", "range", "drop slot", "add slot", "no slot"}


def test_make_pair_rejects_degenerate():
    with pytest.raises(ValueError):
        make_pair(1, "u", 1, "v")
    with pytest.raises(ValueError):
        make_pair(1, "u", 2, "u")
