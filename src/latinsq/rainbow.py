"""Rainbow near-matching families and the local-exchange (switcher) gadget.

A family holds edge-disjoint rainbow edge sets M_1..M_m of an optimally
coloured K_{n,n}, each with two exception sets: vertices required to have
degree 0 and vertices required to have degree 2 (all other vertices at most
1).  A switcher between matchings i and j is an even x,y-path whose odd
edges lie in M_i and even edges in M_j, with both halves rainbow on the same
colour set; exchanging the halves moves one unit of degree between x and y
in both matchings while every colour set and every other degree stays put.

Vertices are (side, index) pairs with side "A" (rows) or "B" (columns),
1-based.  Edges are stored as sorted (a, b, colour) triples so family
equality is structural.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import ProperColoring

Vertex = tuple[str, int]
Edge = tuple[int, int, int]  # (a, b, colour)


def same_side(u: Vertex, v: Vertex) -> bool:
    """True when both vertices lie in one class (both rows or both columns)."""
    return u[0] == v[0]


def _in_range(n: int, k) -> bool:
    # type, not isinstance: True is an int but no index
    return type(k) is int and 1 <= k <= n


def _is_vertex(n: int, v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and v[0] in ("A", "B") and _in_range(n, v[1])


def _check_vertex(n: int, v) -> Vertex:
    if not _is_vertex(n, v):
        raise ValueError(f"bad vertex {v!r} for order {n}")
    return v


@dataclass(frozen=True)
class NearMatchingFamily:
    """Edge sets M_1..M_m over a host colouring, with degree exceptions.

    `deg0[i]` / `deg2[i]` are the vertices required to have degree 0 / 2 in
    matching i; the full validity contract is checked by
    `check_near_matching`, not at construction.
    """

    base: ProperColoring
    matchings: tuple[tuple[Edge, ...], ...]
    deg0: tuple[frozenset[Vertex], ...]
    deg2: tuple[frozenset[Vertex], ...]

    @property
    def m(self) -> int:
        return len(self.matchings)

    @property
    def n(self) -> int:
        return self.base.n

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "matchings": [[[a, b] for (a, b, _c) in mt] for mt in self.matchings],
            "R": [sorted([list(v) for v in s]) for s in self.deg0],
            "T": [sorted([list(v) for v in s]) for s in self.deg2],
        }
        return json.dumps(payload, sort_keys=True)


def make_family(
    base: ProperColoring,
    matchings,
    deg0=None,
    deg2=None,
) -> NearMatchingFamily:
    """Build a family from (a, b) edge lists, reading colours off the host;
    `deg0` or `deg2` None means no exception sets, a list needs one per matching."""
    n = base.n
    m = len(matchings)
    canon = []
    for edges in matchings:
        triples = []
        for e in edges:
            a, b = e[0], e[1]
            if not (_in_range(n, a) and _in_range(n, b)):
                raise ValueError(f"edge ({a},{b}) out of range for order {n}")
            triples.append((a, b, base.edge_color(a, b)))
        canon.append(tuple(sorted(triples)))
    none = [[]] * m
    deg0 = [frozenset(_check_vertex(n, v) for v in s) for s in (none if deg0 is None else deg0)]
    deg2 = [frozenset(_check_vertex(n, v) for v in s) for s in (none if deg2 is None else deg2)]
    if len(deg0) != m or len(deg2) != m:
        raise ValueError("exception set lists must match the number of matchings")
    return NearMatchingFamily(
        base=base, matchings=tuple(canon), deg0=tuple(deg0), deg2=tuple(deg2)
    )


def family_from_json(text: str, base: ProperColoring) -> NearMatchingFamily:
    """Parse `NearMatchingFamily.to_json`'s form over the host `base`;
    raises ValueError naming a missing, ill-typed or inconsistent field."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a family must be a JSON object")
    if data.get("n") != base.n:
        raise ValueError(f"field 'n' is {data.get('n')!r}, not the host order {base.n}")
    m = data.get("m")
    if not (type(m) is int and m >= 0):
        raise ValueError("field 'm' must be a non-negative integer")
    lists = {}
    for name in ("matchings", "R", "T"):
        rows = data.get(name)
        if not (isinstance(rows, list) and len(rows) == m and all(
                isinstance(row, list) and all(isinstance(p, list) and len(p) == 2 for p in row)
                for row in rows)):
            raise ValueError(f"field '{name}' must be a list of {m} lists of pairs")
        lists[name] = [[tuple(p) for p in row] for row in rows]
    return make_family(base, lists["matchings"], deg0=lists["R"], deg2=lists["T"])


def _degrees(edges) -> dict[Vertex, int]:
    deg: dict[Vertex, int] = {}
    for (a, b, _c) in edges:
        for v in (("A", a), ("B", b)):
            deg[v] = deg.get(v, 0) + 1
    return deg


def check_near_matching(fam: NearMatchingFamily) -> tuple[bool, list[tuple]]:
    """Validity contract; the report lists every violating (i, vertex) pair
    along with colour and disjointness faults.  An edge or exception vertex
    outside the host's order is reported and takes no part in the degree
    checks.  So is an edge that is not an (a, b, colour) triple, and a
    matching without its pair of exception sets, or an exception set
    without its matching, under vertex None; a missing set is read as
    empty."""
    n = fam.n
    m = fam.m
    violations: list[tuple] = []
    for name, sets in (("deg0", fam.deg0), ("deg2", fam.deg2)):
        for i in range(len(sets) + 1, m + 1):
            violations.append((i, None, f"no {name} set for matching {i}"))
        for i in range(m + 1, len(sets) + 1):
            violations.append((i, None, f"{name} set {i} has no matching"))
    seen_edges: dict[tuple[int, int], int] = {}
    for i, edges in enumerate(fam.matchings, start=1):
        colors_seen: dict[int, tuple] = {}
        valid = []
        for e in edges:
            if not (isinstance(e, (tuple, list)) and len(e) == 3):
                violations.append((i, None, f"edge {e!r} is not an (a, b, colour) triple"))
                continue
            a, b, c = e
            if not (_in_range(n, a) and _in_range(n, b)):
                violations.append((i, ("A", a), f"edge ({a},{b}) out of range for order {n}"))
                continue
            valid.append((a, b, c))
            if fam.base.edge_color(a, b) != c:
                violations.append((i, ("A", a), f"edge ({a},{b}) colour {c} disagrees with host"))
            if (a, b) in seen_edges and seen_edges[(a, b)] != i:
                violations.append((i, ("A", a), f"edge ({a},{b}) also in matching {seen_edges[(a, b)]}"))
            seen_edges[(a, b)] = i
            if c in colors_seen:
                violations.append((i, ("A", a), f"repeated colour {c} in matching {i}"))
            colors_seen[c] = (a, b)
        deg = _degrees(valid)
        zero = fam.deg0[i - 1] if i <= len(fam.deg0) else frozenset()
        two = fam.deg2[i - 1] if i <= len(fam.deg2) else frozenset()
        for v in sorted(zero | two, key=repr):
            if not _is_vertex(n, v):
                violations.append((i, v, f"bad vertex {v!r} for order {n}"))
        deg0 = {v for v in zero if _is_vertex(n, v)}
        deg2 = {v for v in two if _is_vertex(n, v)}
        for v in sorted(deg0 & deg2):
            violations.append((i, v, "vertex in both exception sets"))
        for v in sorted(deg0):
            if deg.get(v, 0) != 0:
                violations.append((i, v, f"degree {deg.get(v, 0)}, required 0"))
        for v in sorted(deg2):
            if deg.get(v, 0) != 2:
                violations.append((i, v, f"degree {deg.get(v, 0)}, required 2"))
        for v, d in sorted(deg.items()):
            if v not in deg0 and v not in deg2 and d > 1:
                violations.append((i, v, f"degree {d} > 1"))
    return (not violations, violations)


@dataclass(frozen=True)
class Switcher:
    """An even x,y-path exchanging degree between matchings i and j.

    `path` lists the edges in order from x; odd positions (1st, 3rd, ...)
    belong to M_i and even positions to M_j.
    """

    i: int
    j: int
    x: Vertex
    y: Vertex
    path: tuple[Edge, ...]

    @property
    def odd_edges(self) -> tuple[Edge, ...]:
        return self.path[0::2]

    @property
    def even_edges(self) -> tuple[Edge, ...]:
        return self.path[1::2]

    def transposed(self) -> "Switcher":
        """The same path read from y; applying both restores a family."""
        return Switcher(i=self.i, j=self.j, x=self.y, y=self.x, path=self.path[::-1])


def _ends_fault(fam: NearMatchingFamily, i, j, x, y) -> str | None:
    """The first fault of a switcher's matching indices (i, j) and
    endpoints (x, y), or None when they fit fam."""
    if not (_in_range(fam.m, i) and _in_range(fam.m, j)) or i == j:
        return f"bad matching indices ({i!r},{j!r})"
    for v in (x, y):
        if not _is_vertex(fam.n, v):
            return f"bad vertex {v!r} for order {fam.n}"
    if not same_side(x, y) or x == y:
        return "endpoints must be distinct vertices of the same class"
    return None


def validate_switcher(fam: NearMatchingFamily, sw: Switcher) -> str | None:
    """None if sw is a valid switcher for fam, else the first fault."""
    fault = _ends_fault(fam, sw.i, sw.j, sw.x, sw.y)
    if fault is not None:
        return fault
    if len(sw.path) < 4 or len(sw.path) % 2 != 0:
        return f"path length {len(sw.path)} is not an even number >= 4"
    seq = [sw.x]
    cur = sw.x
    for e in sw.path:
        if not (isinstance(e, (tuple, list)) and len(e) == 3):
            return f"edge {e!r} is not an (a, b, colour) triple"
        a, b, c = e
        if not (_in_range(fam.n, a) and _in_range(fam.n, b)):
            return f"edge ({a},{b}) out of range for order {fam.n}"
        ea, eb = ("A", a), ("B", b)
        if cur not in (ea, eb):
            return f"edge ({a},{b}) does not continue the path at {cur}"
        if fam.base.edge_color(a, b) != c:
            return f"edge ({a},{b}) colour {c} disagrees with host"
        cur = eb if cur == ea else ea
        seq.append(cur)
    if cur != sw.y:
        return f"path ends at {cur}, not {sw.y}"
    if len(set(seq)) != len(seq):
        return "path revisits a vertex"
    mi = set(fam.matchings[sw.i - 1])
    mj = set(fam.matchings[sw.j - 1])
    for e in sw.odd_edges:
        if e not in mi:
            return f"odd edge {e} not in matching {sw.i}"
    for e in sw.even_edges:
        if e not in mj:
            return f"even edge {e} not in matching {sw.j}"
    odd_colors = [c for (_a, _b, c) in sw.odd_edges]
    even_colors = [c for (_a, _b, c) in sw.even_edges]
    if len(set(odd_colors)) != len(odd_colors):
        return "odd half is not rainbow"
    if len(set(even_colors)) != len(even_colors):
        return "even half is not rainbow"
    if set(odd_colors) != set(even_colors):
        return "odd and even halves use different colour sets"
    return None


def find_switcher(
    fam: NearMatchingFamily,
    i: int,
    j: int,
    x: Vertex,
    y: Vertex,
    max_len: int = 12,
) -> Switcher | None:
    """Search for an {(i,x),(j,y)}-switcher by iterative deepening.

    Tries even lengths 4, 6, ..., max_len; within a length the search is
    lexicographic in the vertices visited, so the first hit is deterministic.
    Length 2 is impossible under a proper colouring, so lengths below 4 are
    never searched.  Returns None when no switcher of length <= max_len
    exists (legitimately common).  Bad matching indices or endpoints raise
    ValueError with the fault `validate_switcher` would report.
    """
    fault = _ends_fault(fam, i, j, x, y)
    if fault is not None:
        raise ValueError(fault)

    adj_i: dict[Vertex, list[tuple[Vertex, Edge]]] = {}
    adj_j: dict[Vertex, list[tuple[Vertex, Edge]]] = {}
    for adj, edges in ((adj_i, fam.matchings[i - 1]), (adj_j, fam.matchings[j - 1])):
        for (a, b, c) in edges:
            ea, eb = ("A", a), ("B", b)
            adj.setdefault(ea, []).append((eb, (a, b, c)))
            adj.setdefault(eb, []).append((ea, (a, b, c)))
        for lst in adj.values():
            lst.sort()

    for target in range(4, max_len + 1, 2):
        path: list[Edge] = []
        used = {x}
        odd_colors: set[int] = set()
        even_colors: set[int] = set()

        def dfs(cur: Vertex, depth: int) -> Switcher | None:
            if depth == target:
                if cur == y and odd_colors == even_colors:
                    return Switcher(i=i, j=j, x=x, y=y, path=tuple(path))
                return None
            odd_pos = depth % 2 == 0  # next edge is the (depth+1)-th
            adj = adj_i if odd_pos else adj_j
            colors = odd_colors if odd_pos else even_colors
            for (nxt, edge) in adj.get(cur, ()):
                if nxt == y:
                    if depth != target - 1:
                        continue  # y may only appear as the final vertex
                elif nxt in used:
                    continue
                c = edge[2]
                if c in colors:
                    continue
                path.append(edge)
                used.add(nxt)
                colors.add(c)
                hit = dfs(nxt, depth + 1)
                if hit is not None:
                    return hit
                colors.discard(c)
                used.discard(nxt)
                path.pop()
            return None

        try:
            found = dfs(x, 0)
        finally:
            del dfs  # it refers to itself; free it with this length
        if found is not None:
            return found
    return None


def apply_switcher(fam: NearMatchingFamily, sw: Switcher) -> NearMatchingFamily:
    """Exchange the halves: M_i' = (M_i \\ odd) | even, M_j' = (M_j \\ even) | odd.

    The edge multiset of M_i + M_j, both colour sets, and every degree other
    than those of x and y are preserved; x loses one unit of degree in M_i
    and gains one in M_j, y the reverse.  Exception sets are copied verbatim
    (re-labelling them after a correction is the caller's bookkeeping).
    """
    fault = validate_switcher(fam, sw)
    if fault is not None:
        raise ValueError(f"switcher inconsistent with family: {fault}")
    odd = set(sw.odd_edges)
    even = set(sw.even_edges)
    new_i = tuple(sorted((set(fam.matchings[sw.i - 1]) - odd) | even))
    new_j = tuple(sorted((set(fam.matchings[sw.j - 1]) - even) | odd))
    matchings = list(fam.matchings)
    matchings[sw.i - 1] = new_i
    matchings[sw.j - 1] = new_j
    return NearMatchingFamily(
        base=fam.base, matchings=tuple(matchings), deg0=fam.deg0, deg2=fam.deg2
    )


# --- request collections and the (<=1)-balance predicate ---------------------

Pair = frozenset  # frozenset({(i, u), (j, v)})


def make_pair(i: int, u, j: int, v) -> Pair:
    """An unordered request pair {(i,u),(j,v)}; reads as "switch u out of
    matching i and into matching j, v the other way"."""
    if i == j:
        raise ValueError("pair needs two distinct matching indices")
    if u == v:
        raise ValueError("pair needs two distinct vertices")
    return frozenset({(i, u), (j, v)})


def pair_counts(pairs, i: int, u) -> tuple[int, int]:
    """(outgoing, incoming) multiplicities of (i, u) in a pair collection.

    Outgoing counts pairs containing the element (i, u) itself; incoming
    counts pairs containing u whose other element carries index i.  A pair
    that is not two (index, vertex) slots, each a tuple of two as in
    `verify_corrections`, raises a ValueError that names it.
    """
    out = 0
    inc = 0
    for p in pairs:
        try:
            a, b = p
        except (TypeError, ValueError):
            a = b = None
        if not all(isinstance(x, tuple) and len(x) == 2 for x in (a, b)):
            raise ValueError(f"pair {p!r}: not two (index, vertex) slots")
        (i1, u1), (i2, u2) = a, b
        if (i1, u1) == (i, u) or (i2, u2) == (i, u):
            out += 1
        if u1 == u and i2 == i and u2 != u:
            inc += 1
        elif u2 == u and i1 == i and u1 != u:
            inc += 1
    return out, inc


def is_le1_balanced(pairs, i: int, u) -> bool:
    """True iff (i, u) has exactly one outgoing and one incoming request in
    the pair collection, or none of either.  A pair that is not two (index,
    vertex) slots raises a ValueError that names it, as in `pair_counts`."""
    out, inc = pair_counts(pairs, i, u)
    return (out, inc) in ((0, 0), (1, 1))
