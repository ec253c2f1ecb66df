"""Correction scheduling gadgets.

Two executable constructions live here.

`decompose_corrections` turns a balanced family of correction requirements
(for each index i: a set of vertices to switch out and an equal-sized set to
switch in, balanced as a multiset across indices) into a set of local pair
requests, each naming two indices and two vertices.  The pipeline: encode
the requirements as a coloured directed multigraph, split it into cycles,
repair repeated colours so every cycle is rainbow, triangulate long cycles
with fresh-coloured chords, and replace every rainbow triangle by a fixed
nine-edge gadget on three fresh vertices and one fresh colour, after which
the whole graph is a disjoint union of rainbow 2-cycles that read off as the
answer.  Greedy colour/vertex choices run under a colour cap computed from
the instance, with a bounded randomised retry loop, replacing asymptotic
slack with desk-scale feasibility.  Its stage graphs, each a `Counter` of
(tail, head, colour) arcs, are built only when asked for.

`build_connector` wires up a sparse routing graph: stacked levels of size
2^depth forming interleaved binary trees (max degree 4), plus one attachment
edge per root vertex.  `route_pairs` connects any disjoint pairing of the
roots by vertex-disjoint paths pruned around previously routed traffic.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat, starmap

from .rainbow import make_pair
from .sampler import SeededRng

_RETRIES = 32  # fresh-stream retries of the greedy stages before giving up
_FEASIBILITY_FACTOR = 4.0  # free vertices each index needs, per unit of mean demand
_CERTIFICATION_ROUNDS = 100  # random pairings per stream that certify a root count


class InfeasibleError(RuntimeError):
    """A greedy stage ran out of admissible choices after all retries."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"infeasible at this scale ({stage}): {message}")
        self.stage = stage


@dataclass(frozen=True)
class CorrectionInstance:
    """Balanced correction requirements over a ground vertex set.

    For each index i: `surplus[i]` are vertices to switch out of matching i,
    `chosen[i]` (a subset of the reservoir) are vertices to switch in, with
    |chosen[i]| = |surplus[i]| and the union over i of chosen equal as a
    multiset to the union of surplus.

    Validation builds two lookup tables that the checks and the chord and
    gadget stages read instead of rebuilding them: `_universe` (the universe
    as a frozenset) and `_held` (index -> its reservoir | surplus, a
    frozenset, keyed by exactly the indices).  Two more are built on first
    use: `_contract`, which the checks read, and `_positions`, which only
    orders violations.  The tables are attributes, not fields, so they stay
    out of `==`, `repr` and `to_json`.  Like the validation, they assume the
    instance's dicts and sets are not mutated after construction.
    """

    indices: tuple[int, ...]
    universe: tuple
    reservoir: dict
    surplus: dict
    chosen: dict

    def __post_init__(self):
        uni = frozenset(self.universe)
        if len(uni) != len(self.universe) or len(set(self.indices)) != len(self.indices):
            raise ValueError("the universe and the indices must not repeat")
        held: dict = {}
        surpluses, chosens = [], []
        for i in self.indices:
            # frozenset() returns a frozenset argument itself, without a copy
            res = frozenset(self.reservoir.get(i, ()))
            sur = frozenset(self.surplus.get(i, ()))
            cho = frozenset(self.chosen.get(i, ()))
            both = held[i] = res | sur
            if not both <= uni:
                raise ValueError(f"index {i}: sets leave the universe")
            if len(both) != len(res) + len(sur):
                raise ValueError(f"index {i}: reservoir and surplus intersect")
            if not cho <= res:
                raise ValueError(f"index {i}: chosen vertices must come from the reservoir")
            if len(cho) != len(sur):
                raise ValueError(f"index {i}: |chosen| = {len(cho)} != |surplus| = {len(sur)}")
            surpluses.append(sur)
            chosens.append(cho)
        # one count of the surplus union, less the chosen union
        balance = Counter(chain.from_iterable(surpluses))
        balance.subtract(chain.from_iterable(chosens))
        if any(balance.values()):
            raise ValueError("chosen and surplus unions differ as multisets")
        object.__setattr__(self, "_universe", uni)
        object.__setattr__(self, "_held", held)

    @functools.cached_property
    def _contract(self) -> dict:
        """The net-degree contract of `check_conservation`: (index, vertex)
        -> +1 on surplus and -1 on chosen vertices."""
        contract = {}
        for i in self.indices:
            for u in self.surplus.get(i, ()):
                contract[i, u] = 1
            for u in self.chosen.get(i, ()):
                contract[i, u] = -1
        return contract

    @functools.cached_property
    def _positions(self) -> tuple[dict, dict]:
        """Index -> position in `indices`, vertex -> position in `universe`."""
        return ({i: k for k, i in enumerate(self.indices)},
                {u: k for k, u in enumerate(self.universe)})

    def to_json(self) -> str:
        return json.dumps(
            {
                "indices": list(self.indices),
                "universe": list(self.universe),
                "reservoir": {str(i): sorted(self.reservoir.get(i, ())) for i in self.indices},
                "surplus": {str(i): sorted(self.surplus.get(i, ())) for i in self.indices},
                "chosen": {str(i): sorted(self.chosen.get(i, ())) for i in self.indices},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CorrectionInstance":
        """Parse `to_json`'s form; raises ValueError naming a missing or
        ill-typed field, or a vertex list that repeats a vertex."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a correction instance must be a JSON object")
        idx = _int_tuple(d.get("indices"), "indices")
        universe = _int_tuple(d.get("universe"), "universe")
        sets = {}
        for name in ("reservoir", "surplus", "chosen"):
            table = d.get(name)
            if not isinstance(table, dict):
                raise ValueError(f"field '{name}' must be an object keyed by index")
            sets[name] = {i: frozenset(_int_tuple(table.get(str(i)), f"{name}.{i}")) for i in idx}
            for i, vertices in sets[name].items():
                if len(vertices) != len(table[str(i)]):
                    raise ValueError(f"field '{name}.{i}' repeats a vertex")
        return cls(indices=idx, universe=universe, **sets)


def _int_tuple(value, name: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"field '{name}' must be a list of integers")
    return tuple(value)


@dataclass(frozen=True)
class CorrectionSet:
    """The answer: unordered pairs {(i,u),(j,v)} with i != j, u != v."""

    pairs: frozenset

    def to_json(self) -> str:
        rows = sorted(sorted([[i, u] for (i, u) in p]) for p in self.pairs)
        return json.dumps({"pairs": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CorrectionSet":
        """Parse `to_json`'s form; raises ValueError naming a missing or
        ill-typed field, a degenerate pair or a repeated one."""
        d = json.loads(text)
        rows = d.get("pairs") if isinstance(d, dict) else None
        if not (isinstance(rows, list) and all(
                isinstance(p, list) and len(p) == 2
                and all(isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in p)
                for p in rows)):
            raise ValueError("field 'pairs' must be a list of [[i, u], [j, v]] integer pairs")
        pairs = frozenset(make_pair(i, u, j, v) for ((i, u), (j, v)) in rows)
        if len(pairs) != len(rows):
            raise ValueError("field 'pairs' repeats a pair")
        return cls(pairs=pairs)


def check_conservation(arcs: Counter, inst: CorrectionInstance) -> list:
    """Violations (index, vertex, net degree, target) of the per-colour
    net-degree contract on `arcs`, a stage graph: a `Counter` of (tail,
    head, colour) arcs.  The contract is +1 on surplus vertices, -1 on
    chosen vertices, 0 elsewhere.  Those inside the instance come first,
    ordered as `inst.indices` and then `inst.universe`; those at a vertex
    outside the universe or a colour that is not an index follow, with
    target 0, in the order the arcs first reach them.  One pass over the
    arcs takes their net degrees off a copy of the instance's contract; only
    the keys left nonzero are then placed and sorted, since every other
    (colour, vertex) meets its target.  An arc whose key is not a tuple of
    three or whose multiplicity is not a number raises a ValueError that
    names it."""
    contract = inst._contract
    off = dict(contract)  # (colour, vertex) -> target - net degree
    get = off.get
    try:
        for arc, m in arcs.items():
            if not isinstance(arc, tuple):
                raise ValueError  # named below, as a bad unpacking is
            t, h, c = arc
            slot = c, t
            off[slot] = get(slot, 0) - m
            slot = c, h
            off[slot] = get(slot, 0) + m
    except (TypeError, ValueError):
        raise ValueError(
            f"arc {arc!r}: not a (tail, head, colour) triple with count {m!r}") from None
    keys = [slot for slot, d in off.items() if d]
    if not keys:
        return []
    held, universe = inst._held, inst._universe  # held's keys are the indices
    inside, outside = [], []
    for slot in keys:
        i, u = slot
        if i in held and u in universe:
            inside.append(slot)
        else:
            outside.append((i, u, -off[slot], 0))
    ipos, upos = inst._positions
    inside.sort(key=lambda slot: (ipos[slot[0]], upos[slot[1]]))
    bad = []
    for slot in inside:
        target = contract.get(slot, 0)
        bad.append((*slot, target - off[slot], target))
    return bad + outside


def random_correction_instance(
    rng: SeededRng, num_indices: int = 20, universe_size: int = 400, max_surplus: int = 3
) -> CorrectionInstance:
    """A random feasible instance: surpluses drawn freely, then the same
    multiset dealt back out as chosen reservoir vertices by `_deal_chosen`,
    a max flow.  Raises ValueError for a negative size, for a max_surplus
    larger than the universe, and when no deal exists."""
    for name, size in (("indices", num_indices), ("universe", universe_size),
                       ("max_surplus", max_surplus)):
        if size < 0:
            raise ValueError(f"{name} must be non-negative, got {size}")
    if max_surplus > universe_size:
        raise ValueError(f"max_surplus {max_surplus} exceeds the universe size {universe_size}")
    indices = tuple(range(1, num_indices + 1))
    universe = tuple(range(1, universe_size + 1))
    surplus = {}
    for i in indices:
        k = rng.randint(max_surplus + 1)
        surplus[i] = frozenset(rng.sample(universe, k))
    chosen = _deal_chosen(surplus, rng)
    reservoir = {}
    for i in indices:
        extra = [
            u
            for u in rng.sample(universe, min(universe_size, len(chosen[i]) + 4))
            if u not in surplus[i] and u not in chosen[i]
        ]
        reservoir[i] = chosen[i].union(extra[:4])
    return CorrectionInstance(
        indices=indices,
        universe=universe,
        reservoir=reservoir,
        surplus=surplus,
        chosen=chosen,
    )


def _deal_chosen(surplus: dict, rng: SeededRng) -> dict:
    """Deal the multiset union of the surplus sets back out: |surplus[i]|
    vertices to each index i, none of them from surplus[i] and none twice
    to one index; returns frozensets keyed like `surplus`.

    This is a max flow on source -> vertex u (capacity: u's multiplicity),
    u -> index i (capacity 1, or 0 when u is in surplus[i]) and i -> sink
    (capacity |surplus[i]|).  The shuffled pool, cut into runs of
    |surplus[i]| in index order, is the first deal; each copy it leaves
    unplaced is then placed along a shortest augmenting path.  A copy with
    no augmenting path never gets one later, since no augmenting path
    touches what its search reached, so the flow stays short of the demand
    and no deal exists: then this raises ValueError."""
    pool = [u for i in surplus for u in sorted(surplus[i])]
    rng.shuffle(pool)
    chosen: dict = {}  # index -> {vertex: None}, an insertion-ordered set
    need: dict = {}  # index -> vertices it still lacks
    unplaced = []
    pos = 0
    for i, sur in surplus.items():
        k = len(sur)
        cho = chosen[i] = {}
        for u in pool[pos:pos + k]:
            if u in sur or u in cho:
                unplaced.append(u)
            else:
                cho[u] = None
        pos += k
        need[i] = k - len(cho)
    for u in unplaced:
        if not _augment(u, surplus, chosen, need):
            raise ValueError(
                "could not deal a feasible chosen assignment: no deal exists"
                f" (no index can take another copy of vertex {u})"
            )
    return {i: frozenset(cho) for i, cho in chosen.items()}


def _augment(start, surplus: dict, chosen: dict, need: dict) -> bool:
    """Place one more copy of vertex `start` along a shortest augmenting
    path of `_deal_chosen`'s flow, breadth first: a vertex moves into an
    index that neither holds it nor has it in surplus, displacing a vertex
    that index holds, until an index that still lacks vertices takes one.
    Returns False, changing nothing, when there is no such path."""
    via: dict = {}  # index -> the vertex that moves into it
    came = {start: None}  # vertex -> the index it moves out of
    queue = [start]
    for u in queue:
        for i, sur in surplus.items():
            if i in via or u in sur or u in chosen[i]:
                continue
            via[i] = u
            if need[i]:
                need[i] -= 1
                while i is not None:
                    u = via[i]
                    chosen[i][u] = None
                    i = came[u]
                    if i is not None:
                        del chosen[i][u]
                return True
            for w in chosen[i]:
                if w not in came:
                    came[w] = i
                    queue.append(w)
    return False


def _decompose_into_cycles(edges: list) -> list[list]:
    """Split balanced coloured arcs into simple directed cycles (edge lists)."""
    out_adj: dict = {}
    for e in sorted(edges):
        out_adj.setdefault(e[0], []).append(e)
    for lst in out_adj.values():
        lst.reverse()  # pop() takes the lexicographically smallest first
    cycles = []
    roots = sorted(out_adj)
    for root in roots:
        while out_adj.get(root):
            path: list = []
            pos: dict = {}
            v = root
            while True:
                if v in pos:
                    k = pos[v]
                    cycle = path[k:]
                    cycles.append(cycle)
                    for e in cycle:
                        del pos[e[0]]
                    del path[k:]
                    if not path:
                        break
                    v = path[-1][1]
                    continue
                stack = out_adj.get(v)
                if not stack:
                    if not path:
                        break
                    raise AssertionError("imbalanced multigraph cannot happen here")
                pos[v] = len(path)
                e = stack.pop()
                path.append(e)
                v = e[1]
    return cycles


def _repair_rainbow(cycles: list[list]) -> list[list]:
    """Rewire repeated-colour cycles until every cycle is rainbow.

    Two same-coloured arcs u1->u2, u3->u4 on one cycle are replaced by
    u1->u4, u3->u2, splitting the cycle in two; each step raises the cycle
    count, so this terminates.
    """
    queue = list(cycles)
    done: list[list] = []
    while queue:
        cyc = queue.pop()
        by_color: dict = {}
        split = None
        for k, e in enumerate(cyc):
            if e[2] in by_color:
                split = (by_color[e[2]], k)
                break
            by_color[e[2]] = k
        if split is None:
            done.append(cyc)
            continue
        a, b = split
        u1, u2, i = cyc[a]
        u3, u4, _ = cyc[b]
        cyc1 = cyc[b + 1:] + cyc[:a] + [(u1, u4, i)]
        cyc2 = cyc[a + 1:b] + [(u3, u2, i)]
        queue.append(cyc1)
        queue.append(cyc2)
    return done


def _zigzag_triangles(length: int) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    """Chords and triangles (as position triples) of the zigzag triangulation
    of a cycle 0..length-1; every vertex meets at most two chords."""
    seq = [0]
    lo, hi = 1, length - 1
    take_lo = True
    while lo <= hi:
        if take_lo:
            seq.append(lo)
            lo += 1
        else:
            seq.append(hi)
            hi -= 1
        take_lo = not take_lo
    chords = [tuple(sorted((seq[k], seq[k + 1]))) for k in range(1, length - 2)]
    triangles = [tuple(sorted((seq[k], seq[k + 1], seq[k + 2]))) for k in range(length - 2)]
    return chords, triangles


def decompose_corrections(
    inst: CorrectionInstance,
    rng: SeededRng,
    collect_stages: bool = False,
):
    """Decompose balanced correction requirements into pair requests.

    Returns a CorrectionSet satisfying `verify_corrections`; with
    `collect_stages` also the (name, graph) list of the four stage graphs,
    each a `Counter` of (tail, head, colour) arcs, built only then, for
    external conservation checks.  Raises InfeasibleError when a greedy
    stage exhausts its candidates in every retry.
    """
    biggest = max((len(inst.surplus.get(i, ())) for i in inst.indices), default=0)
    color_cap = max(8, 2 * biggest)
    demand = sum(len(inst.surplus.get(i, ())) for i in inst.indices)
    if inst.indices and demand:
        margin = _FEASIBILITY_FACTOR * demand / len(inst.indices)
        for i in inst.indices:
            free = len(inst.universe) - len(inst._held[i])
            if free < margin:
                raise InfeasibleError(
                    "feasibility check",
                    f"index {i} leaves only {free} free vertices, below the margin {margin:.1f}",
                )

    last_error: InfeasibleError | None = None
    for attempt in range(_RETRIES + 1):
        # attempt 0 takes every candidate in sorted order and draws nothing
        stream = rng.derive(1000 + attempt) if attempt else None
        try:
            return _decompose_once(inst, stream, color_cap, collect_stages)
        except InfeasibleError as exc:
            last_error = exc
    raise last_error


def _order(items, rng: SeededRng | None):
    """`items` as given for rng None, else a shuffled copy."""
    if rng is None:
        return items
    items = list(items)
    rng.shuffle(items)
    return items


def _decompose_once(
    inst: CorrectionInstance,
    rng: SeededRng | None,
    color_cap: int,
    collect_stages: bool,
):
    # rng None takes every candidate in sorted order; a stream shuffles them
    # stage 1: one arc per requirement, surplus -> chosen in colour i
    arcs: list = []
    for i in inst.indices:
        sur = sorted(inst.surplus.get(i, ()))
        cho = _order(sorted(inst.chosen.get(i, ())), rng)
        arcs.extend(zip(sur, cho, repeat(i)))

    # stage 2: cycle decomposition; stage 3: make every cycle rainbow
    cycles = _repair_rainbow(_decompose_into_cycles(arcs))

    # blocked[i]: the vertices v whose slot (i, v) the chord and gadget
    # stages may not take, colour i's held set (reservoir and surplus) and
    # every slot a chord or a gadget has taken; chord_ends[i]: the number of
    # colour i's chord ends, two new ones per chord, since a chord takes
    # only slots that were not blocked
    held = inst._held
    blocked = {i: set(h) for i, h in held.items()}
    chord_ends: dict = dict.fromkeys(inst.indices, 0)
    universe_sorted = sorted(inst.universe)
    colors_sorted = sorted(inst.indices)

    # stage 4: triangulate cycles of length >= 4 with fresh-coloured chords
    pairs: list = []  # (i, u, j, v): the pair {(i, u), (j, v)}
    triangles: list = []  # (x, y, z, a, b, c): x->y in a, y->z in b, z->x in c
    for cyc in sorted(cycles):
        L = len(cyc)
        if L == 2:
            (u, v, i), (_v, _u, j) = cyc
            pairs.append((i, u, j, v))
            continue
        verts = [e[0] for e in cyc]  # position p holds the tail of edge p
        # the colour of each side, keyed by its two positions in order: the
        # arcs p -> p + 1, the closing arc L - 1 -> 0 and the chords
        color = {(p, p + 1): cyc[p][2] for p in range(L - 1)}
        color[0, L - 1] = cyc[-1][2]
        chords, tri_list = _zigzag_triangles(L)
        for (p, q) in chords:
            x, y = verts[p], verts[q]
            cands = _order(colors_sorted, rng)
            chosen_color = None
            for i in cands:
                b = blocked[i]
                if x in b or y in b or chord_ends[i] + 2 > color_cap:
                    continue
                chosen_color = i
                break
            if chosen_color is None:
                if all(x in held[i] or y in held[i] for i in cands):
                    raise InfeasibleError("chord colouring", "insufficient colour space")
                raise InfeasibleError(
                    "chord colouring", f"no admissible colour for chord ({x},{y})"
                )
            color[p, q] = chosen_color
            blocked[chosen_color].update((x, y))
            chord_ends[chosen_color] += 2
        for (p, q, r) in tri_list:
            triangles.append((verts[p], verts[q], verts[r], color[p, q], color[q, r], color[p, r]))

    # stage 5: replace each rainbow triangle by the 2-cycle gadget
    for (x, y, z, a, b, c) in triangles:
        # the first three vertices free in all three colours and off the
        # triangle; the universe does not repeat, so none comes twice
        fresh = []
        ba, bb, bc = blocked[a], blocked[b], blocked[c]
        for v in _order(universe_sorted, rng):
            if v in ba or v in bb or v in bc or v in (x, y, z):
                continue
            fresh.append(v)
            if len(fresh) == 3:
                break
        if len(fresh) < 3:
            raise InfeasibleError(
                "triangle gadget", f"no fresh vertices for triangle ({x},{y},{z})"
            )
        xp, yp, zp = fresh
        cands_c = _order(colors_sorted, rng)
        d = None
        for i in cands_c:
            if i in (a, b, c):
                continue
            bi = blocked[i]
            if xp in bi or yp in bi or zp in bi:
                continue
            d = i
            break
        if d is None:
            if all(i in (a, b, c) for i in cands_c):
                raise InfeasibleError("triangle gadget", "insufficient colour space")
            raise InfeasibleError(
                "triangle gadget", f"no fresh colour for triangle ({x},{y},{z})"
            )
        blocked[a].update((xp, yp))
        blocked[b].update((yp, zp))
        blocked[c].update((xp, zp))
        blocked[d].update(fresh)
        pairs += ((a, x, c, xp), (a, xp, d, yp), (a, yp, b, y),
                  (b, yp, d, zp), (b, zp, c, z), (c, zp, d, xp))

    result = CorrectionSet(pairs=frozenset(starmap(make_pair, pairs)))
    if not collect_stages:
        return result
    # each stage graph read off the structures the next stage used; a chord
    # lies in two triangles, once in each direction
    triangulated = [e for cyc in cycles if len(cyc) == 2 for e in cyc]
    for (x, y, z, a, b, c) in triangles:
        triangulated += (x, y, a), (y, z, b), (z, x, c)
    final = []
    for (i, u, j, v) in pairs:
        final += (u, v, i), (v, u, j)
    return result, [
        ("initial", Counter(arcs)),
        ("rainbow", Counter(chain.from_iterable(cycles))),
        ("triangulated", Counter(triangulated)),
        ("two-cycles", Counter(final)),
    ]


def _malformed(pair) -> list:
    """The violations of a malformed pair: one per element, in its order,
    and one for an empty pair."""
    try:
        items = list(pair) or [None]
    except TypeError:
        items = [pair]
    return [
        ("malformed", *x) if isinstance(x, tuple) and len(x) == 2 else ("malformed", None, x)
        for x in items
    ]


def verify_corrections(inst: CorrectionInstance, cset: CorrectionSet) -> tuple[bool, list]:
    """Check all five conclusion groups; violations come back as
    (rule, index, vertex) triples.  Membership violations come first, in
    `cset.pairs` iteration order (within a pair, its slots in the pair's
    own order).  A malformed pair is reported among them and left out of
    the other checks: one that is not two (index, vertex) slots, or whose
    slots share their index or their vertex, gives ("malformed", i, u) for
    each slot (i, u), ("malformed", None, x) for each element x that is no
    slot, and ("malformed", None, None) when empty.  The others follow
    grouped by index in `inst.indices` order and by rule, with the vertices
    of A1-1 to A1-3 in ascending order and those of A1-4 in `inst.universe`
    order.  Only the violations are sorted."""
    violations: list = []
    held, universe, contract = inst._held, inst._universe, inst._contract
    reservoir, surplus = inst.reservoir, inst.surplus
    empty = frozenset()
    into = []  # the slots the pairs switch vertices into
    malformed = []
    for pair in cset.pairs:
        try:
            (i, u), (j, v) = pair
            bad_pair = i == j or u == v
        except (TypeError, ValueError):
            bad_pair = True
        if bad_pair:
            violations.extend(_malformed(pair))
            malformed.append(pair)
            continue
        # u switches out of i and into j, v the other way; neither may be in
        # the reservoir of the index it leaves nor in the surplus of the other
        # (held's keys are the indices)
        if (i not in held or u not in universe or u in reservoir.get(i, empty)
                or u in surplus.get(j, empty)):
            violations.append(("membership", i, u))
        if (j not in held or v not in universe or v in reservoir.get(j, empty)
                or v in surplus.get(i, empty)):
            violations.append(("membership", j, v))
        into.append((j, u))
        into.append((i, v))
    ins = Counter(into)
    pairs = [p for p in cset.pairs if p not in malformed] if malformed else cset.pairs
    outs = Counter(chain.from_iterable(pairs))
    bad = []
    # A1-1 and A1-2: every surplus slot switches out once, every chosen slot in once
    for slot, target in contract.items():
        if (outs if target == 1 else ins).get(slot) != 1:
            bad.append(("A1-1" if target == 1 else "A1-2", *slot))
    # A1-3: no vertex switches into a reservoir slot that is not chosen
    for slot in ins:
        i, u = slot
        if u in held.get(i, empty) and slot not in contract:
            bad.append(("A1-3", i, u))
    # A1-4 holds at (0, 0), so only the slots some pair touches need a look,
    # and of those only the ones not balanced at (1, 1)
    for slot in outs.keys() | ins.keys():
        if outs.get(slot) == 1 == ins.get(slot):
            continue
        i, u = slot
        if i in held and u in universe and u not in held[i]:
            bad.append(("A1-4", i, u))

    def place(violation):
        rule, i, u = violation
        ipos, upos = inst._positions
        return ipos[i], rule, upos[u] if rule == "A1-4" else u

    violations.extend(sorted(bad, key=place))
    return (not violations, violations)


# --- connector graph ---------------------------------------------------------


@dataclass
class ConnectorGraph:
    """Interleaved binary trees over shared levels, with attachable roots.

    Vertices are 1..size.  Levels 0..depth each hold 2**depth vertices; the
    tree below level-0 vertex j has level-i vertex block starting at index
    2**i * (j - 1), wrapped modulo 2**depth.  Each of the m root vertices
    (outside the levels) attaches by a single edge to a distinct level-0
    vertex.  Tree edges keep the maximum degree at 4; attachment edges add 1
    at level 0.
    """

    size: int
    depth: int
    spread: float
    levels: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    adj: dict
    certified_roots: int = 0

    @property
    def width(self) -> int:
        return 1 << self.depth

    def level_block(self, j: int, i: int) -> list[int]:
        """Level-i vertex set of the tree rooted at the j-th level-0 vertex."""
        w = self.width
        return sorted(
            self.levels[i][((1 << i) * (j - 1) + t) % w] for t in range(1 << i)
        )

    def tree_vertices(self, j: int) -> set[int]:
        out: set[int] = set()
        for i in range(self.depth + 1):
            out.update(self.level_block(j, i))
        return out

    def to_edge_list(self) -> list[tuple[int, int]]:
        seen = set()
        for v, nbrs in self.adj.items():
            for w in nbrs:
                seen.add((min(v, w), max(v, w)))
        return sorted(seen)


def connector_depth(size: int, spread: float) -> int:
    """Largest depth with 2**depth <= size / (spread * log2(size))."""
    if size < 4 or not spread >= 1:  # NaN fails too
        raise ValueError("need size >= 4 and spread >= 1")
    bound = size / (spread * math.log2(size))
    if bound < 1:
        raise ValueError(f"no feasible depth for size {size} and spread {spread}")
    return int(math.floor(math.log2(bound)))


def build_connector(
    size: int,
    roots: int,
    spread: float = 10.0,
    rng: SeededRng | None = None,
) -> ConnectorGraph:
    """Build the routing graph on vertex set [size] with the given number of
    attached roots, then certify (and record) the largest root count whose
    random maximal pairings all route in stress tests."""
    depth = connector_depth(size, spread)
    width = 1 << depth
    if roots < 1 or roots > width:
        raise ValueError(f"root count must be in 1..{width} for depth {depth}")
    need = (depth + 1) * width + roots
    if need > size:
        raise ValueError(f"levels plus roots need {need} vertices, only {size} available")

    levels = tuple(
        tuple(i * width + t + 1 for t in range(width)) for i in range(depth + 1)
    )
    root_ids = tuple((depth + 1) * width + t + 1 for t in range(roots))
    adj: dict = {v: [] for v in range(1, size + 1)}
    for i in range(depth):
        for j in range(width):
            v = levels[i][j]
            for r in (1, 2):
                s = (2 * j + r - 1) % width
                w = levels[i + 1][s]
                adj[v].append(w)
                adj[w].append(v)
    for t, u in enumerate(root_ids):
        v0 = levels[0][t]
        adj[u].append(v0)
        adj[v0].append(u)
    for v in adj:
        adj[v] = sorted(set(adj[v]))

    graph = ConnectorGraph(
        size=size, depth=depth, spread=spread, levels=levels, roots=root_ids, adj=adj
    )
    if rng is None:
        rng = SeededRng(0)
    graph.certified_roots = _certify(graph, rng)
    return graph


def random_maximal_pairing(items: list, rng: SeededRng) -> list[tuple]:
    """Shuffle `items` and pair them off in order; an odd one out is left."""
    pool = list(items)
    rng.shuffle(pool)
    return [(pool[2 * t], pool[2 * t + 1]) for t in range(len(pool) // 2)]


def _certify(graph: ConnectorGraph, rng: SeededRng) -> int:
    """Largest m such that `_CERTIFICATION_ROUNDS` random maximal pairings
    of the first m roots all route, confirmed on a second independent
    stream."""
    for m in range(len(graph.roots), 0, -1):
        prefix = list(graph.roots[:m])
        ok = True
        for stream in (1, 2):
            sub = rng.derive(7000 + stream)
            for _ in range(_CERTIFICATION_ROUNDS):
                pairs = random_maximal_pairing(prefix, sub)
                try:
                    route_pairs(graph, pairs)
                except RoutingError:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return m
    return 0


class RoutingError(RuntimeError):
    def __init__(self, pair_index: int, pair: tuple, message: str):
        super().__init__(f"routing failed at pair {pair_index} {pair}: {message}")
        self.pair_index = pair_index
        self.pair = pair


def route_pairs(graph: ConnectorGraph, pairs: list[tuple]) -> list[list[int]]:
    """Vertex-disjoint paths connecting each pair of roots.

    Sequential: for each pair, prune both trees of vertices already used by
    earlier paths and take a shortest path in the surviving union.  Internal
    vertices stay outside the root set, and each path meets each level in at
    most two vertices; violations raise instead of returning overlap.
    """
    root_index = {u: t + 1 for t, u in enumerate(graph.roots)}
    flat = [u for p in pairs for u in p]
    if len(set(flat)) != len(flat):
        raise ValueError("pairs must be vertex-disjoint")
    for u in flat:
        if u not in root_index:
            raise ValueError(f"{u} is not a root vertex")

    used: set[int] = set()
    level_of = {}
    for i, level in enumerate(graph.levels):
        for v in level:
            level_of[v] = i
    paths: list[list[int]] = []
    for t, (ua, ub) in enumerate(pairs):
        ja, jb = root_index[ua], root_index[ub]
        comp_a = _pruned_component(graph, ja, used)
        comp_b = _pruned_component(graph, jb, used)
        if comp_a is None or comp_b is None:
            raise RoutingError(t, (ua, ub), "a tree root is already blocked")
        path = _shortest_union_path(graph, ja, jb, comp_a, comp_b)
        if path is None:
            raise RoutingError(t, (ua, ub), "pruned trees no longer meet")
        full = [ua] + path + [ub]
        for lev in range(graph.depth + 1):
            if sum(1 for v in path if level_of[v] == lev) > 2:
                raise AssertionError("path meets a level more than twice")
        if used & set(path):
            raise AssertionError("overlapping paths")
        used.update(path)
        paths.append(full)
    return paths


def _pruned_component(graph: ConnectorGraph, j: int, used: set[int]):
    """Vertices of tree j reachable from its level-0 root avoiding `used`."""
    root = graph.levels[0][j - 1]
    if root in used:
        return None
    members = graph.tree_vertices(j)
    comp = {root}
    queue = [root]
    while queue:
        v = queue.pop()
        for w in graph.adj[v]:
            if w in members and w not in used and w not in comp:
                comp.add(w)
                queue.append(w)
    return comp

def _shortest_union_path(graph: ConnectorGraph, ja: int, jb: int, comp_a: set, comp_b: set):
    """BFS shortest path between the two tree roots inside the union of the
    surviving tree components (tree edges only)."""
    allowed = comp_a | comp_b
    start = graph.levels[0][ja - 1]
    goal = graph.levels[0][jb - 1]
    if start == goal:
        return [start]
    prev = {start: None}
    queue = [start]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in graph.adj[v]:
            if w in allowed and w not in prev:
                prev[w] = v
                if w == goal:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(w)
    return None
