import itertools
import random
import re
from collections import Counter

import pytest

from latinsq.absorber import (
    CorrectionInstance,
    CorrectionSet,
    InfeasibleError,
    _deal_chosen,
    build_connector,
    check_conservation,
    connector_depth,
    decompose_corrections,
    random_correction_instance,
    route_pairs,
    verify_corrections,
)
from latinsq.rainbow import is_le1_balanced, make_pair
from latinsq.sampler import SeededRng


def small_instance():
    return CorrectionInstance(
        indices=(1, 2),
        universe=tuple(range(1, 11)),
        reservoir={1: frozenset({2}), 2: frozenset({1})},
        surplus={1: frozenset({1}), 2: frozenset({2})},
        chosen={1: frozenset({2}), 2: frozenset({1})},
    )


def test_instance_validation():
    with pytest.raises(ValueError, match="intersect"):
        CorrectionInstance(
            indices=(1,),
            universe=(1, 2),
            reservoir={1: frozenset({1})},
            surplus={1: frozenset({1})},
            chosen={1: frozenset({1})},
        )
    with pytest.raises(ValueError, match="reservoir"):
        CorrectionInstance(
            indices=(1,),
            universe=(1, 2, 3),
            reservoir={1: frozenset({2})},
            surplus={1: frozenset({1})},
            chosen={1: frozenset({3})},
        )
    with pytest.raises(ValueError, match="repeat"):
        CorrectionInstance(
            indices=(1, 2),
            universe=(1, 2, 2),
            reservoir={},
            surplus={},
            chosen={},
        )
    with pytest.raises(ValueError, match="repeat"):
        CorrectionInstance(indices=(1, 1), universe=(1, 2), reservoir={}, surplus={}, chosen={})
    with pytest.raises(ValueError, match="multiset"):
        CorrectionInstance(
            indices=(1, 2),
            universe=(1, 2, 3, 4),
            reservoir={1: frozenset({2}), 2: frozenset({4})},
            surplus={1: frozenset({1}), 2: frozenset({3})},
            chosen={1: frozenset({2}), 2: frozenset({4})},
        )


def test_empty_instance_gives_empty_set():
    inst = CorrectionInstance(
        indices=(1, 2, 3),
        universe=tuple(range(1, 6)),
        reservoir={i: frozenset() for i in (1, 2, 3)},
        surplus={i: frozenset() for i in (1, 2, 3)},
        chosen={i: frozenset() for i in (1, 2, 3)},
    )
    cset = decompose_corrections(inst, SeededRng(0))
    assert cset.pairs == frozenset()
    assert verify_corrections(inst, cset)[0]


def test_two_index_swap_gives_single_pair():
    inst = small_instance()
    cset = decompose_corrections(inst, SeededRng(0))
    assert cset.pairs == frozenset({make_pair(1, 1, 2, 2)})
    ok, violations = verify_corrections(inst, cset)
    assert ok, violations


def test_conservation_after_every_stage():
    rng = SeededRng(123)
    for t in range(10):
        inst = random_correction_instance(rng.derive(t), num_indices=12, universe_size=80)
        cset, stages = decompose_corrections(inst, rng.derive(100 + t), collect_stages=True)
        assert [name for (name, _g) in stages] == [
            "initial",
            "rainbow",
            "triangulated",
            "two-cycles",
        ]
        for name, graph in stages:
            assert check_conservation(graph, inst) == [], name
        ok, violations = verify_corrections(inst, cset)
        assert ok, violations


def test_decompose_without_stages_returns_the_same_pairs():
    # the instances of the retry digest below, with and without the stages
    for t in range(40):
        try:
            inst = random_correction_instance(
                SeededRng(77).derive(t), num_indices=8, universe_size=30, max_surplus=3
            )
        except ValueError:
            continue
        cset, _stages = decompose_corrections(inst, SeededRng(78).derive(t), collect_stages=True)
        assert decompose_corrections(inst, SeededRng(78).derive(t)) == cset, t


def test_final_stage_is_the_answer():
    # on the instances of the retry digest below, the "two-cycles" stage is
    # exactly the arcs u -> v in i and v -> u in j of the returned pairs
    # {(i, u), (j, v)}, each once
    decomposed = 0
    for t in range(40):
        try:
            inst = random_correction_instance(
                SeededRng(77).derive(t), num_indices=8, universe_size=30, max_surplus=3
            )
        except ValueError:
            continue
        cset, stages = decompose_corrections(inst, SeededRng(78).derive(t), collect_stages=True)
        arcs = Counter()
        for (i, u), (j, v) in cset.pairs:
            arcs.update([(u, v, i), (v, u, j)])
        assert dict(stages)["two-cycles"] == arcs, t
        decomposed += 1
    assert decomposed == 36


def test_decompose_digest_with_retries_unchanged():
    # pairs and stage graphs of tightly packed instances, 16 of whose
    # decompositions retry with shuffled candidates; re-recorded when the
    # instances came to be drawn by the O(k) sample and dealt by max flow
    # (was 38 decomposed, c34ad0564d379dd5); 4 of the 40 shapes have no deal
    import hashlib

    h = hashlib.sha256()
    decomposed = 0
    for t in range(40):
        try:
            inst = random_correction_instance(
                SeededRng(77).derive(t), num_indices=8, universe_size=30, max_surplus=3
            )
        except ValueError:
            continue  # no deal exists
        cset, stages = decompose_corrections(inst, SeededRng(78).derive(t), collect_stages=True)
        decomposed += 1
        h.update(cset.to_json().encode())
        for name, graph in stages:
            h.update(name.encode())
            h.update(repr(sorted(graph.items())).encode())
    assert decomposed == 36
    assert h.hexdigest()[:16] == "cfd2d0b5c7412ce0"


def test_benchmark_shape_digest_unchanged():
    # instances of the benchmark's shape (20 indices over 1..400, surpluses
    # of at most 3), their pairs, stage graphs and check results
    import hashlib

    h = hashlib.sha256()
    for t in range(25):
        inst = random_correction_instance(
            SeededRng(41).derive(0).derive(t), num_indices=20, universe_size=400, max_surplus=3
        )
        cset, stages = decompose_corrections(inst, SeededRng(41).derive(1).derive(t),
                                             collect_stages=True)
        h.update(inst.to_json().encode())
        h.update(cset.to_json().encode())
        for name, graph in stages:
            h.update(name.encode())
            h.update(repr(sorted(graph.items())).encode())
            h.update(repr(check_conservation(graph, inst)).encode())
        h.update(repr(verify_corrections(inst, cset)).encode())
    assert h.hexdigest()[:16] == "b1664b69c6bd91f7"


def _valid_deal(surplus, chosen):
    pool = Counter(u for sur in surplus.values() for u in sur)
    return (
        chosen.keys() == surplus.keys()
        and all(len(chosen[i]) == len(surplus[i]) and not chosen[i] & surplus[i] for i in surplus)
        and Counter(u for cho in chosen.values() for u in cho) == pool
    )


def test_deal_finds_the_only_deals_of_a_tight_shape():
    # the shape SeededRng(4242).derive(29) drew for 9 indices over 1..67
    # before the deal was a flow; 10 000 random shuffles found no deal
    surplus = {i: frozenset() for i in range(1, 10)}
    surplus.update({2: frozenset({46, 64}), 3: frozenset({24, 30, 38}),
                    5: frozenset({38, 62, 64}), 6: frozenset({9, 40, 62}),
                    7: frozenset({8, 26, 38}), 9: frozenset({64})})
    for seed in range(20):
        chosen = _deal_chosen(surplus, SeededRng(seed))
        assert _valid_deal(surplus, chosen)
        assert {i for i in chosen if 38 in chosen[i]} == {2, 6, 9}
        assert {i for i in chosen if 64 in chosen[i]} == {3, 6, 7}


def test_deal_raises_only_when_no_deal_exists():
    with pytest.raises(ValueError, match="no deal exists"):
        _deal_chosen({1: frozenset({5}), 2: frozenset({5})}, SeededRng(0))

    def exists(surplus):
        # brute force: give each index in turn a set of the copies left
        left = Counter(u for sur in surplus.values() for u in sur)
        order = list(surplus)

        def place(k):
            if k == len(order):
                return True
            i = order[k]
            for pick in itertools.combinations(sorted(u for u in left if left[u]), len(surplus[i])):
                if set(pick) & surplus[i]:
                    continue
                left.subtract(pick)
                if place(k + 1):
                    return True
                left.update(pick)
            return False

        return place(0)

    rnd = random.Random(2024)
    outcomes = Counter()
    for t in range(400):
        universe = range(1, rnd.randint(6, 14))
        surplus = {i: frozenset(rnd.sample(universe, rnd.randint(0, min(3, len(universe)))))
                   for i in range(1, rnd.randint(3, 7))}
        try:
            chosen = _deal_chosen(surplus, SeededRng(t))
        except ValueError:
            assert not exists(surplus), surplus
            outcomes["none"] += 1
            continue
        assert _valid_deal(surplus, chosen), (surplus, chosen)
        outcomes["dealt"] += 1
    assert min(outcomes["none"], outcomes["dealt"]) > 50, outcomes


def test_random_instance_deals_the_tight_shape():
    inst = random_correction_instance(SeededRng(4242).derive(29), num_indices=9, universe_size=67)
    assert len(inst.indices) == 9


def test_random_instance_rejects_a_surplus_larger_than_the_universe():
    for seed in range(8):
        rng = SeededRng(seed).derive(0)
        with pytest.raises(ValueError, match="max_surplus 3 exceeds the universe size 2"):
            random_correction_instance(rng, num_indices=2, universe_size=2, max_surplus=3)
        # rejected before any draw: the stream is where a fresh one starts
        assert rng.randint(1 << 30) == SeededRng(seed).derive(0).randint(1 << 30)
        # at the bound only the deal can fail
        try:
            random_correction_instance(rng, num_indices=2, universe_size=2, max_surplus=2)
        except ValueError as exc:
            assert "no deal exists" in str(exc)


def test_per_colour_degree_cap_after_final_stage():
    rng = SeededRng(321)
    inst = random_correction_instance(rng.derive(0), num_indices=10, universe_size=60)
    _cset, stages = decompose_corrections(inst, rng.derive(1), collect_stages=True)
    final = dict(stages)["two-cycles"]
    outs: dict = {}
    ins: dict = {}
    for (t, h, c), m in final.items():
        outs[(t, c)] = outs.get((t, c), 0) + m
        ins[(h, c)] = ins.get((h, c), 0) + m
    assert all(v <= 1 for v in outs.values())
    assert all(v <= 1 for v in ins.values())


def test_verify_rejects_empty_when_surplus_nonempty():
    inst = small_instance()
    ok, violations = verify_corrections(inst, CorrectionSet(pairs=frozenset()))
    assert not ok
    assert ("A1-1", 1, 1) in violations


def test_verify_rejects_membership_breach():
    inst = small_instance()
    # vertex 2 is in reservoir of index 1, so (1,2) cannot switch out
    bad = CorrectionSet(pairs=frozenset({make_pair(1, 2, 2, 1)}))
    ok, violations = verify_corrections(inst, bad)
    assert not ok
    assert any(rule == "membership" for (rule, _i, _u) in violations)


def test_verify_reports_malformed_pairs():
    # A same-index pair used to pass, and a one-slot pair to raise
    # "not enough values to unpack".
    inst = random_correction_instance(SeededRng(1).derive(0), num_indices=6, universe_size=40)
    cset = decompose_corrections(inst, SeededRng(2))
    assert verify_corrections(inst, cset) == (True, [])
    cases = [
        (frozenset({(1, 2), (1, 3)}), {("malformed", 1, 2), ("malformed", 1, 3)}),
        (frozenset({(1, 2)}), {("malformed", 1, 2)}),
        (frozenset({(1, 2), (2, 2)}), {("malformed", 1, 2), ("malformed", 2, 2)}),
        (frozenset({(1, 2), 5}), {("malformed", 1, 2), ("malformed", None, 5)}),
        (frozenset({(1, 2, 3), (2, 4)}), {("malformed", None, (1, 2, 3)), ("malformed", 2, 4)}),
        (frozenset(), {("malformed", None, None)}),
    ]
    for extra, expected in cases:
        ok, violations = verify_corrections(inst, CorrectionSet(pairs=cset.pairs | {extra}))
        assert not ok and set(violations) == expected and len(violations) == len(expected), extra
    # reported first, and the A1 violations of a dropped pair still follow
    pairs = frozenset(sorted(cset.pairs, key=sorted)[1:]) | {frozenset({(1, 2)})}
    _ok, violations = verify_corrections(inst, CorrectionSet(pairs=pairs))
    assert violations[0] == ("malformed", 1, 2)
    assert {rule for rule, _i, _u in violations[1:]} <= {"A1-1", "A1-2", "A1-3", "A1-4"}
    assert len(violations) > 1


def test_verify_balance_matches_predicate():
    # the A1-4 counting agrees with the standalone balance predicate
    rng = SeededRng(9)
    inst = random_correction_instance(rng.derive(0), num_indices=8, universe_size=40)
    cset = decompose_corrections(inst, rng.derive(1))
    ok, _ = verify_corrections(inst, cset)
    assert ok
    for i in inst.indices:
        excluded = inst.reservoir.get(i, frozenset()) | inst.surplus.get(i, frozenset())
        for u in inst.universe:
            if u not in excluded:
                assert is_le1_balanced(cset.pairs, i, u)


def test_infeasible_when_no_colour_space():
    # a single index cannot host chord colours: long cycles are infeasible,
    # but a direct 2-cycle family still works; force a 4-cycle with 2 indices
    # whose exception sets block every chord colour
    universe = (1, 2, 3, 4)
    inst = CorrectionInstance(
        indices=(1, 2),
        universe=universe,
        reservoir={1: frozenset({2, 4}), 2: frozenset({1, 3})},
        surplus={1: frozenset({1, 3}), 2: frozenset({2, 4})},
        chosen={1: frozenset({2, 4}), 2: frozenset({1, 3})},
    )
    with pytest.raises(InfeasibleError):
        decompose_corrections(inst, SeededRng(0))


def test_instance_json_round_trip():
    inst = random_correction_instance(SeededRng(77).derive(0), num_indices=6, universe_size=30)
    back = CorrectionInstance.from_json(inst.to_json())
    assert back == inst
    cset = decompose_corrections(inst, SeededRng(78))
    back_set = CorrectionSet.from_json(cset.to_json())
    assert back_set == cset


# The dense checks that the sparse ones replaced, kept as references: every
# (index, vertex) pair of the instance, in the order of `indices` and `universe`.


def _dense_conservation(graph, inst):
    net = Counter()
    for (t, h, c), m in graph.items():
        net[(t, c)] += m
        net[(h, c)] -= m
    bad = []
    for i in inst.indices:
        for u in inst.universe:
            want = 1 if u in inst.surplus.get(i, ()) else (-1 if u in inst.chosen.get(i, ()) else 0)
            if net[(u, i)] != want:
                bad.append((i, u, net[(u, i)], want))
    # then the vertices and colours outside the instance, in first-seen arc order
    uni, idx = set(inst.universe), set(inst.indices)
    bad += [(i, u, d, 0) for (u, i), d in net.items() if d and not (u in uni and i in idx)]
    return bad


def _dense_verify(inst, cset):
    bad, uni, idx = [], set(inst.universe), set(inst.indices)
    outs, ins = Counter(), Counter()
    for p in cset.pairs:
        (i, u), (j, v) = tuple(p)
        for (a, x), b in (((i, u), j), ((j, v), i)):
            if (a not in idx or x not in uni or x in inst.reservoir.get(a, ())
                    or x in inst.surplus.get(b, ())):
                bad.append(("membership", a, x))
    for p in cset.pairs:
        (i, u), (j, v) = tuple(p)
        outs.update([(i, u), (j, v)])
        ins.update([(j, u), (i, v)])
    for i in inst.indices:
        res, sur = inst.reservoir.get(i, frozenset()), inst.surplus.get(i, frozenset())
        cho = inst.chosen.get(i, frozenset())
        bad += [("A1-1", i, u) for u in sorted(sur) if outs[(i, u)] != 1]
        bad += [("A1-2", i, u) for u in sorted(cho) if ins[(i, u)] != 1]
        bad += [("A1-3", i, u) for u in sorted(set(res) - set(cho)) if ins[(i, u)] != 0]
        bad += [("A1-4", i, u) for u in inst.universe if u not in res | sur
                and (outs[(i, u)], ins[(i, u)]) not in ((0, 0), (1, 1))]
    return not bad, bad


def _permuted(inst, rnd):
    """The same instance with its indices and universe listed in another order."""
    indices, universe = list(inst.indices), list(inst.universe)
    rnd.shuffle(indices)
    rnd.shuffle(universe)
    return CorrectionInstance(tuple(indices), tuple(universe), inst.reservoir, inst.surplus,
                              inst.chosen)


def _equivalence_cases(count):
    """(instance, stage graphs, correction set) for `count` random instances;
    every other one lists its indices and universe out of order."""
    rng, rnd = SeededRng(4242), random.Random(4242)
    for t in range(count):
        inst = random_correction_instance(
            rng.derive(t), num_indices=rnd.randint(10, 14), universe_size=rnd.randint(40, 80)
        )
        cset, stages = decompose_corrections(inst, rng.derive(500 + t), collect_stages=True)
        yield (_permuted(inst, rnd) if t % 2 else inst), [g for _n, g in stages], cset, rnd


def _mutated_graph(graph, inst, rnd, malformed=False):
    """A copy of the stage graph with arcs added, removed or redirected,
    some of them at vertices or colours outside the instance; with
    `malformed`, a mutation may also end on a key that is not a (tail, head,
    colour) triple, such as a three-character string, or a multiplicity that
    is not a number."""
    edges = Counter(graph)
    uni, idx = list(inst.universe) + [10**6, "x"], list(inst.indices) + [0, 99]
    moves = ("add", "remove", "redirect") + (("malform",) if malformed else ())
    for _ in range(rnd.randint(1, 4)):
        move = rnd.choice(moves if edges else ("add",))
        if move == "add":
            edges[(rnd.choice(uni), rnd.choice(uni), rnd.choice(idx))] += rnd.randint(1, 2)
            continue
        if move == "malform":
            t, h, c = rnd.choice(uni), rnd.choice(uni), rnd.choice(idx)
            if rnd.random() < 0.5:
                edges[rnd.choice(((t, h), (t, h, c, c), t, None, "abc"))] = rnd.randint(1, 2)
            else:
                edges[(t, h, c)] = rnd.choice((None, "1"))
            break
        t, h, c = rnd.choice(sorted(edges, key=repr))
        edges[(t, h, c)] -= 1
        if not edges[(t, h, c)]:
            del edges[(t, h, c)]
        if move == "redirect":
            edges[rnd.choice(((t, rnd.choice(uni), c), (t, h, rnd.choice(idx))))] += 1
    return edges


def _mutated_set(cset, inst, rnd):
    """The correction set with pairs dropped and pairs added, some of them
    naming indices or vertices outside the instance."""
    pairs = sorted(cset.pairs, key=lambda p: sorted(p))
    rnd.shuffle(pairs)
    pairs = pairs[rnd.randint(0, 2):]
    uni, idx = list(inst.universe) + [10**6], list(inst.indices) + [0]
    for _ in range(rnd.randint(0, 3)):
        i, j = rnd.sample(idx, 2)
        u, v = rnd.sample(uni, 2)
        pairs.append(make_pair(i, u, j, v))
    return CorrectionSet(pairs=frozenset(pairs))


def test_sparse_conservation_matches_dense():
    # six mutants a graph, since about half of them end on a malformed arc
    broken = rejected = 0
    for inst, graphs, _cset, rnd in _equivalence_cases(60):
        for graph in graphs:
            assert check_conservation(graph, inst) == _dense_conservation(graph, inst) == []
            for _ in range(6):
                bad = _mutated_graph(graph, inst, rnd, malformed=True)
                odd = [arc for arc, m in bad.items()
                       if not (isinstance(arc, tuple) and len(arc) == 3 and type(m) is int)]
                if odd:  # a malformed arc gets a ValueError that names it
                    with pytest.raises(ValueError, match=re.escape(f"arc {odd[0]!r}:")):
                        check_conservation(bad, inst)
                    rejected += 1
                    continue
                got = check_conservation(bad, inst)
                assert got == _dense_conservation(bad, inst)
                broken += bool(got)
    assert broken > 500  # most mutants break conservation; the checks agree on them all
    assert rejected > 300


def test_sparse_verify_matches_dense():
    rules = Counter()
    for inst, _graphs, cset, rnd in _equivalence_cases(60):
        assert verify_corrections(inst, cset) == _dense_verify(inst, cset) == (True, [])
        for _ in range(6):
            bad = _mutated_set(cset, inst, rnd)
            got = verify_corrections(inst, bad)
            assert got == _dense_verify(inst, bad)
            rules.update(rule for rule, _i, _u in got[1])
    assert set(rules) == {"membership", "A1-1", "A1-2", "A1-3", "A1-4"}, rules


def _malformed_pairs(inst, rnd):
    """One to three seeded malformed pairs, each with the ("malformed", ...)
    entries it should get: one slot, a shared index, a shared vertex, or an
    element that is not a pair (three slots, a slot beside a bare vertex, or
    a bare vertex)."""
    uni, idx = list(inst.universe), list(inst.indices)
    out = {}
    for _ in range(rnd.randint(1, 3)):
        (i, j), (u, v) = rnd.sample(idx, 2), rnd.sample(uni, 2)
        kind = rnd.choice(("one slot", "shared index", "shared vertex", "not a pair"))
        if kind == "one slot":
            pair = frozenset({(i, u)})
        elif kind == "shared index":
            pair = frozenset({(i, u), (i, v)})
        elif kind == "shared vertex":
            pair = frozenset({(i, u), (j, u)})
        else:
            kind, pair = rnd.choice((("three slots", frozenset({(i, u), (j, v), (i, v)})),
                                     ("slot and vertex", frozenset({(i, u), v})),
                                     ("vertex", u)))
        items = pair if isinstance(pair, frozenset) else [pair]
        out[pair] = kind, [("malformed", *x) if isinstance(x, tuple) else ("malformed", None, x)
                           for x in items]
    return out


def test_verify_sets_malformed_pairs_apart():
    # malformed pairs added to the valid set, and to a mutant of it, get
    # their ("malformed", ...) entries, and the rest of the verdict is that
    # of the set without them: its membership entries as a multiset, its
    # A1 entries in order
    kinds = Counter()
    for inst, _graphs, cset, rnd in _equivalence_cases(60):
        for base in (cset, _mutated_set(cset, inst, rnd)):
            extra = _malformed_pairs(inst, rnd)
            kinds.update(kind for kind, _want in extra.values())
            want = Counter(e for _kind, entries in extra.values() for e in entries)
            _ok, rest = verify_corrections(inst, base)
            a1 = [v for v in rest if v[0].startswith("A1")]
            ok, got = verify_corrections(inst, CorrectionSet(pairs=base.pairs | frozenset(extra)))
            head = len(got) - len(a1)
            assert not ok and got[head:] == a1
            assert Counter(got[:head]) == want + Counter(v for v in rest if v[0] == "membership")
    assert len(kinds) == 6, kinds


def test_conservation_reports_arcs_outside_the_instance():
    inst = random_correction_instance(SeededRng(1).derive(0), num_indices=6, universe_size=40)
    _cset, stages = decompose_corrections(inst, SeededRng(2), collect_stages=True)
    edges = Counter(stages[-1][1])
    assert check_conservation(edges, inst) == []
    edges[(10**6, "x", 1)] += 1  # vertices outside the universe
    edges[(1, 2, 99)] += 1  # a colour that is not an index
    assert check_conservation(edges, inst) == [
        (1, 10**6, 1, 0), (1, "x", -1, 0), (99, 1, 1, 0), (99, 2, -1, 0),
    ]
    edges[(1, 2, 3)] += 1  # in-instance violations come first
    assert check_conservation(edges, inst) == [
        (3, 1, 1, 0), (3, 2, -1, 0),
        (1, 10**6, 1, 0), (1, "x", -1, 0), (99, 1, 1, 0), (99, 2, -1, 0),
    ]


def test_instance_tables_leak_nowhere():
    rnd = random.Random(7)
    inst = random_correction_instance(SeededRng(5).derive(0), num_indices=10, universe_size=60)
    text, shown = inst.to_json(), repr(inst)
    cset, stages = decompose_corrections(inst, SeededRng(5).derive(1), collect_stages=True)
    bad_set = _mutated_set(cset, inst, rnd)
    bad_graph = _mutated_graph(stages[-1][1], inst, rnd)
    for _name, graph in stages:
        assert check_conservation(graph, inst) == []
    assert verify_corrections(inst, cset) == (True, [])
    assert verify_corrections(inst, bad_set)[1]  # orders violations by position
    assert check_conservation(bad_graph, inst)
    assert inst.to_json() == text and repr(inst) == shown
    assert inst == CorrectionInstance.from_json(inst.to_json())
    # the same dicts listed in another order: the same violations, in its own order
    other = _permuted(inst, rnd)
    assert other != inst
    for mine, theirs, dense in (
        (verify_corrections(other, bad_set)[1], verify_corrections(inst, bad_set)[1],
         _dense_verify(other, bad_set)[1]),
        (check_conservation(bad_graph, other), check_conservation(bad_graph, inst),
         _dense_conservation(bad_graph, other)),
    ):
        assert mine == dense and mine != theirs
        assert sorted(map(repr, mine)) == sorted(map(repr, theirs))


# --- connector ----------------------------------------------------------------


def test_connector_depth_rule():
    # 2^depth <= size / (spread * log2 size) < 2^(depth+1)
    for (size, spread) in ((1024, 10.0), (4096, 10.0), (2048, 4.0), (512, 2.0)):
        depth = connector_depth(size, spread)
        import math

        bound = size / (spread * math.log2(size))
        assert 2**depth <= bound < 2 ** (depth + 1)


def test_connector_structure():
    g = build_connector(1024, 8, spread=10.0, rng=SeededRng(1).derive(0))
    assert g.depth == 3 and g.width == 8
    assert len(g.roots) == 8
    # levels are disjoint and sized 2^depth
    flat = [v for lvl in g.levels for v in lvl]
    assert len(flat) == len(set(flat)) == (g.depth + 1) * g.width
    # roots form an independent set, each attached to one level-0 vertex
    rootset = set(g.roots)
    for u in g.roots:
        nbrs = g.adj[u]
        assert len(nbrs) == 1 and nbrs[0] in g.levels[0]
        assert not (set(nbrs) & rootset)
    # max degree 4 on non-root edges
    for lvl in g.levels:
        for v in lvl:
            tree_deg = sum(1 for w in g.adj[v] if w not in rootset)
            assert tree_deg <= 4
    # exported edge list matches the adjacency
    edges = g.to_edge_list()
    assert len(edges) == len(set(edges))
    assert len(edges) == g.depth * g.width * 2 + len(g.roots)


def test_tree_levels_match_block_arithmetic():
    g = build_connector(1024, 8, spread=10.0, rng=SeededRng(2).derive(0))
    width = g.width
    for j in range(1, width + 1):
        # BFS the induced tree from its root and compare level sets
        members = g.tree_vertices(j)
        root = g.levels[0][j - 1]
        frontier = {root}
        seen = {root}
        for i in range(g.depth + 1):
            assert sorted(frontier) == g.level_block(j, i)
            nxt = set()
            for v in frontier:
                for w in g.adj[v]:
                    if w in members and w not in seen:
                        nxt.add(w)
                        seen.add(w)
            frontier = nxt
        assert len(g.level_block(j, g.depth)) == width  # top level is shared


def test_single_pair_routes_through_top_level():
    g = build_connector(1024, 8, spread=10.0, rng=SeededRng(3).derive(0))
    paths = route_pairs(g, [(g.roots[0], g.roots[1])])
    assert len(paths) == 1
    path = paths[0]
    assert path[0] == g.roots[0] and path[-1] == g.roots[1]
    assert len(path) - 1 == 2 * (g.depth + 1)
    level_of = {}
    for i, lvl in enumerate(g.levels):
        for v in lvl:
            level_of[v] = i
    assert max(level_of[v] for v in path[1:-1]) == g.depth


def test_route_pairs_empty():
    g = build_connector(512, 4, spread=2.0, rng=SeededRng(4).derive(0))
    assert route_pairs(g, []) == []


def test_routing_disjoint_at_certified_bound():
    g = build_connector(2048, 16, spread=10.0, rng=SeededRng(5).derive(0))
    assert g.certified_roots >= 2
    stress = SeededRng(6)
    prefix = list(g.roots[: g.certified_roots])
    for trial in range(30):
        pool = list(prefix)
        stress.derive(trial).shuffle(pool)
        pairs = [(pool[2 * t], pool[2 * t + 1]) for t in range(len(pool) // 2)]
        paths = route_pairs(g, pairs)
        seen: set = set()
        for (pair, path) in zip(pairs, paths):
            assert path[0] == pair[0] and path[-1] == pair[1]
            interior = path[1:-1]
            assert not (set(interior) & set(g.roots))
            assert not (set(interior) & seen)
            seen.update(interior)


def test_route_pairs_validates_input():
    g = build_connector(512, 4, spread=2.0, rng=SeededRng(7).derive(0))
    with pytest.raises(ValueError, match="disjoint"):
        route_pairs(g, [(g.roots[0], g.roots[1]), (g.roots[1], g.roots[2])])
    with pytest.raises(ValueError, match="not a root"):
        route_pairs(g, [(g.roots[0], 1)])


def test_build_connector_rejects_infeasible():
    with pytest.raises(ValueError):
        build_connector(64, 100, spread=2.0)
    with pytest.raises(ValueError):
        connector_depth(4, 100.0)
    with pytest.raises(ValueError, match="spread >= 1"):
        connector_depth(1024, float("nan"))
