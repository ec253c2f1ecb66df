"""The JSON parsers answer every input: the parsed object, or a ValueError
(ValidationError is one) that names what is wrong, never another exception."""

import copy
import json
import random

import pytest

from latinsq.absorber import (
    CorrectionInstance,
    CorrectionSet,
    decompose_corrections,
    random_correction_instance,
)
from latinsq.core import cyclic_square, to_coloring
from latinsq.links import Pattern, repeat_pattern
from latinsq.rainbow import NearMatchingFamily, family_from_json, make_family
from latinsq.sampler import SeededRng

HOST = to_coloring(cyclic_square(5))


def _parsers():
    """(name, parse, a valid text, the type it parses to)."""
    inst = random_correction_instance(SeededRng(77).derive(0), num_indices=6, universe_size=30)
    cset = decompose_corrections(inst, SeededRng(78))
    fam = make_family(HOST, [[(1, 1), (2, 2)], [(1, 2), (2, 3)]],
                      deg0=[[("A", 3)], []], deg2=[[], [("B", 4), ("A", 5)]])
    triangle = Pattern(num_vertices=4, edges=((0, 1, 1), (1, 2, 2), (2, 0, 1), (2, 3, 3)), start=0, end=3)
    return [
        ("instance", CorrectionInstance.from_json, inst.to_json(), CorrectionInstance),
        ("set", CorrectionSet.from_json, cset.to_json(), CorrectionSet),
        ("family", lambda text: family_from_json(text, HOST), fam.to_json(), NearMatchingFamily),
        ("repeat pattern", Pattern.from_json, repeat_pattern(3).to_json(), Pattern),
        ("pattern", Pattern.from_json, triangle.to_json(), Pattern),
    ]


def _containers(value):
    """Every non-empty list and dict inside a parsed JSON value, outermost first."""
    if isinstance(value, (list, dict)) and value:
        yield value
        for v in (value.values() if isinstance(value, dict) else value):
            yield from _containers(v)


def _mutant(data, rnd):
    """A copy of data with one seeded mutation in one of its lists or
    objects: drop, duplicate or swap an entry, take an entry out of range,
    or give it the wrong type.  Returns the kind, the copy, and the
    top-level field the mutation dropped, or None."""
    data = copy.deepcopy(data)
    node = rnd.choice(list(_containers(data)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    k = rnd.choice(keys)
    kind = rnd.choice(["drop", "duplicate", "swap", "range", "type"])
    if kind == "drop":
        del node[k]
    elif kind == "duplicate":
        if isinstance(node, list):
            node.insert(k, copy.deepcopy(node[k]))
        else:
            node[rnd.choice(keys)] = copy.deepcopy(node[k])
    elif kind == "swap":
        j = rnd.choice(keys)
        node[k], node[j] = node[j], node[k]
    elif kind == "range":
        node[k] = rnd.choice([0, -1, 10**6])
    else:
        node[k] = rnd.choice([None, "1", 1.5, True, [], {}, [1], [[1]]])
    return kind, data, (k if kind == "drop" and node is data else None)


def test_json_parsers_answer_every_mutant():
    rnd = random.Random(2626)
    for name, parse, text, kind_of in _parsers():
        assert isinstance(parse(text), kind_of)
        data = json.loads(text)
        kinds = set()
        for _ in range(300):
            kind, mutant, dropped = _mutant(data, rnd)
            kinds.add(kind)
            try:
                assert isinstance(parse(json.dumps(mutant)), kind_of), (name, kind, mutant)
            except ValueError as exc:
                # a dropped field is named in the verdict
                assert dropped is None or f"'{dropped}'" in str(exc), (name, mutant, exc)
            else:
                assert dropped is None, (name, mutant)
        assert kinds == {"drop", "duplicate", "swap", "range", "type"}, name
        for bad in ("null", "[]", "7", '"text"', "{", ""):
            with pytest.raises(ValueError):
                parse(bad)


def _repeating(name, i):
    """A valid instance's JSON with the first vertex of index i's list in
    field `name` written twice."""
    inst = CorrectionInstance(
        indices=(1, 2, 3),
        universe=tuple(range(1, 11)),
        reservoir={1: frozenset({2, 5}), 2: frozenset({1}), 3: frozenset({7, 8})},
        surplus={1: frozenset({1}), 2: frozenset({2})},
        chosen={1: frozenset({2}), 2: frozenset({1})},
    )
    d = json.loads(inst.to_json())
    d[name][str(i)].append(d[name][str(i)][0])
    return json.dumps(d)


def test_json_parsers_name_the_field():
    cases = [
        (CorrectionSet.from_json, "{}", "'pairs'"),
        (CorrectionInstance.from_json, _repeating("reservoir", 3), "'reservoir.3' repeats a vertex"),
        (CorrectionInstance.from_json, _repeating("surplus", 1), "'surplus.1' repeats a vertex"),
        (CorrectionInstance.from_json, _repeating("chosen", 2), "'chosen.2' repeats a vertex"),
        (CorrectionSet.from_json, '{"pairs": [[1]]}', "'pairs'"),
        (CorrectionSet.from_json, '{"pairs": [[[1, 2], [2, "3"]]]}', "'pairs'"),
        (CorrectionSet.from_json, '{"pairs": [[[1, 2], [2, 3]], [[2, 3], [1, 2]]]}', "repeats a pair"),
        (CorrectionSet.from_json, '{"pairs": [[[1, 2], [1, 3]]]}', "distinct matching indices"),
        (Pattern.from_json, "{}", "'vertices'"),
        (Pattern.from_json, '{"vertices": 3, "start": 1, "end": 3, "edges": [[1, 2]]}', "'edges'"),
        (Pattern.from_json, '{"vertices": 3, "start": 1, "end": 4, "edges": []}', "start and end"),
        (Pattern.from_json, '{"vertices": "3", "start": 1, "end": 3, "edges": []}', "'vertices'"),
        (lambda text: family_from_json(text, HOST), "{}", "'n'"),
        (lambda text: family_from_json(text, HOST), '{"n": 5}', "'m'"),
        (lambda text: family_from_json(text, HOST),
         '{"n": 5, "m": 1, "matchings": [[[1]]], "R": [[]], "T": [[]]}', "'matchings'"),
        (lambda text: family_from_json(text, HOST),
         '{"n": 5, "m": 1, "matchings": [[[1, 1]]], "R": [], "T": [[]]}', "'R'"),
        (lambda text: family_from_json(text, HOST),
         '{"n": 5, "m": 1, "matchings": [[["1", 1]]], "R": [[]], "T": [[]]}', "out of range"),
        (lambda text: family_from_json(text, HOST),
         '{"n": 5, "m": 1, "matchings": [[[1, 1]]], "R": [[["A", 6]]], "T": [[]]}', "bad vertex"),
    ]
    for parse, text, words in cases:
        with pytest.raises(ValueError, match=words):
            parse(text)
