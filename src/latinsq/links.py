"""Colour-pattern templates and their embeddings in a coloured K_{n,n}.

A pattern is a small graph with designated start/end vertices whose edges
are grouped into colour classes.  An embedding (a "link") maps the pattern
injectively into the host so that all edges of one class receive a single
host colour, distinct across classes.  The repeating-colour path family
``repeat_pattern(k)`` (a path of length 2k whose k edge classes repeat in
order) is the workhorse.

Counting and enumeration share one backtracking engine on integer vertices
(row a is a - 1, column b is n + b - 1) over the colouring's cached
``ProperColoring.partners`` table.  A per-call plan fixes, for each step of
the elimination order, which placed neighbours bind a colour class and
which only check it; a step with an already-bound class has one forced
candidate and is followed in a loop, and every other step branches over
one side in ascending id order, i.e. in (side, index) order.  The cost is
that of the branching steps: for ``repeat_pattern(k)`` the first k interior
vertices branch and the others are forced, so one search costs O(n^k)
table lookups, not near-linear time.  Enumeration places the start and the
end first.  Counting places only the start: one search from a start counts
the links to every end, the counts stay on the colouring
(``ProperColoring.link_counts``), and every further end from that start is
a lookup.  For ``repeat_pattern(k)`` that search forces the end last and
costs about one search with both endpoints placed; a pattern whose start
alone does not force the end cheaply pays more for its first count.  When
the plan ends in forced steps that check no class, after a branching step,
that step follows them for each of its candidates and counts the end, so
no leaf of a count opens a frame.  The path-pair census and the
closed-walk count read the same table; the census moves its second path
one edge with each edge of the first, along the same colour, and drops a
branch at the first vertex that either path has already used.

The search's colour lookups keep every pattern edge between a row and a
column: the table reads colour 0 between two vertices of one class, which
no check accepts, and a forced step always crosses to the other class.  So
a pattern with an odd cycle, or an end on the same side as the start when
the pattern puts it on the other, never reaches a leaf, and parity needs no
pre-pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .core import LatinSquare, ProperColoring, check_limit
from .rainbow import Vertex, _check_vertex
from .sampler import SeededRng, enumerate_all, sample_squares

INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Pattern:
    """Template graph: `edges` are (a, b, class_index) with vertices 0-based;
    `start`/`end` are the designated endpoints of an embedding."""

    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.num_vertices and 0 <= self.end < self.num_vertices):
            raise ValueError("start and end must be vertices of the pattern")
        if self.start == self.end:
            raise ValueError("start and end vertices must differ")
        seen = set()
        for (a, b, cls) in self.edges:
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices) or a == b:
                raise ValueError(f"bad edge ({a},{b})")
            if cls < 1:
                raise ValueError("class indices are positive")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(key)

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": self.num_vertices,
                "edges": [[a + 1, b + 1, cls] for (a, b, cls) in self.edges],
                "start": self.start + 1,
                "end": self.end + 1,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Pattern":
        """Parse `to_json`'s form; raises ValueError naming a missing or
        ill-typed field, or the fault of the pattern it describes."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a pattern must be a JSON object")
        for name in ("vertices", "start", "end"):
            if type(data.get(name)) is not int:
                raise ValueError(f"field '{name}' must be an integer")
        edges = data.get("edges")
        if not (isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 3 and all(type(x) is int for x in e) for e in edges)):
            raise ValueError("field 'edges' must be a list of [a, b, class] integer triples")
        return cls(
            num_vertices=data["vertices"],
            edges=tuple((a - 1, b - 1, c) for (a, b, c) in edges),
            start=data["start"] - 1,
            end=data["end"] - 1,
        )


def repeat_pattern(k: int) -> Pattern:
    """Path of length 2k: edge t gets class ((t-1) mod k) + 1, so the first k
    classes repeat once in the same order."""
    if k < 1:
        raise ValueError("k must be positive")
    edges = tuple((t, t + 1, (t % k) + 1) for t in range(2 * k))
    return Pattern(num_vertices=2 * k + 1, edges=edges, start=0, end=2 * k)


@dataclass(frozen=True)
class Link:
    """A single embedding of a pattern between two host vertices."""

    pattern: Pattern
    embedding: tuple[Vertex, ...]  # pattern vertex -> host vertex
    class_colors: tuple[tuple[int, int], ...]  # (class_index, host colour)


@dataclass
class CensusResult:
    """A path-pair census: the number of pairs counted, and whether the
    count stopped at INT64_MAX.  Callers that want the time take it."""

    count: int
    saturated: bool = False


def _vertex_id(n: int, v: Vertex) -> int:
    side, i = _check_vertex(n, v)
    return i - 1 if side == "A" else n + i - 1


def _vertex_of(n: int, x: int) -> Vertex:
    return ("A", x + 1) if x < n else ("B", x - n + 1)


def _plan(pat: Pattern, first: tuple[int, ...]):
    """One step per vertex of the elimination order after the start:
    (w, forced_from, forced_slot, checks).  The order places the vertices
    of `first` (the start, or the start and the end), then again and again
    the unplaced vertex with the most placed neighbours (most constrained
    first), the lowest index on ties.  A class is bound at the first step
    that closes one of its edges, which the order alone decides, so each
    check knows statically whether it binds its class (``True``) or
    compares with the bound colour.  ``forced_slot`` >= 0 names a class
    bound before the step, whose colour forces w's image from the image of
    ``forced_from``; otherwise w branches over the side opposite its first
    placed neighbour, or over every vertex when it has none.  Also returns
    the sorted classes."""
    classes = sorted({cls for (_a, _b, cls) in pat.edges})
    slot = {cls: k for k, cls in enumerate(classes)}
    adj: dict[int, list[tuple[int, int]]] = {w: [] for w in range(pat.num_vertices)}
    for (a, b, cls) in pat.edges:
        adj[a].append((b, slot[cls]))
        adj[b].append((a, slot[cls]))
    done: set[int] = set()
    bound: set[int] = set()
    steps = []
    for i in range(pat.num_vertices):
        if i < len(first):
            w = first[i]
        else:  # max keeps the first, i.e. lowest, of equal scores
            w = max((v for v in adj if v not in done),
                    key=lambda v: sum(z in done for (z, _k) in adj[v]))
        placed = [(z, k) for (z, k) in adj[w] if z in done]
        forced = next(((z, k) for (z, k) in placed if k in bound), (-1, -1))
        checks = []
        for (z, k) in placed:
            if (z, k) != forced:
                checks.append((z, k, k not in bound))
                bound.add(k)
        steps.append((w, *forced, tuple(checks)))
        done.add(w)
    return steps[1:], classes


def _search(host: ProperColoring, ui: int, vi: int | None, pat: Pattern, limit):
    """With ``vi`` None, count the embeddings of pat with the start at
    vertex id ``ui`` to every end: the plan places only the start.  With
    ``vi`` given, list the first ``limit`` embeddings with the end at
    ``vi``, in the order of the elimination steps with candidates by
    ascending vertex id, i.e. by (side, index): the plan places the start
    and the end.  Returns (counts by end vertex id, links)."""
    n = host.n
    m, s = 2 * n, n + 1
    ends = [0] * m
    links: list[Link] = []
    if limit == 0:
        return ends, links
    via, color = host.partners
    steps, classes = _plan(pat, (pat.start,) if vi is None else (pat.start, pat.end))
    emb = [0] * pat.num_vertices
    emb[pat.start] = ui
    used = 1 << ui
    cc = [0] * len(classes)  # class slot -> colour
    cmask = 0  # colours bound to some class
    run = ()
    if vi is None:
        # the forced steps at the end of the plan that check nothing: when
        # a branching step with checks comes just before them, that step
        # follows this run for each of its candidates, and no leaf opens a
        # frame
        r = len(steps)
        while r > 1 and steps[r - 1][2] >= 0 and not steps[r - 1][3]:
            r -= 1
        if r < len(steps) and steps[r - 1][2] < 0 and steps[r - 1][3]:
            steps, run = steps[:r], tuple(step[:3] for step in steps[r:])
    else:
        (_w, _fz, _fk, end_checks), steps = steps[0], steps[1:]
        emb[pat.end] = vi
        used |= 1 << vi
        for (z, k, _bind) in end_checks:  # a start-end edge binds its class
            c = color[vi * m + emb[z]]
            if not c:
                return ends, links
            cc[k], cmask = c, 1 << c
    end = pat.end
    last = len(steps)

    def rec(i: int, used: int, cmask: int) -> bool:
        while i < last:
            w, fz, fk, checks = steps[i]
            if fk >= 0:  # forced: followed in this loop, no new frame
                x = via[emb[fz] * s + cc[fk]]
                if used >> x & 1:
                    return False
                row = x * m
                for (z, k, bind) in checks:
                    c = color[row + emb[z]]
                    if bind:
                        if not c or cmask >> c & 1:
                            return False
                        cc[k] = c
                        cmask |= 1 << c
                    elif c != cc[k]:
                        return False
                emb[w] = x
                used |= 1 << x
                i += 1
                continue
            if not checks:  # a component without start or end: any vertex
                for x in range(m):
                    if not used >> x & 1:
                        emb[w] = x
                        if rec(i + 1, used | 1 << x, cmask):
                            return True
                return False
            # the first placed neighbour's class is unbound: it binds to the
            # colour of each candidate on the opposite side
            (z0, k0, _bind), rest = checks[0], checks[1:]
            e0 = emb[z0]
            lo = n if e0 < n else 0
            follow = i + 1 == last and run
            for x, c0 in enumerate(color[e0 * m + lo:e0 * m + lo + n], lo):
                if used >> x & 1 or cmask >> c0 & 1:
                    continue
                cc[k0] = c0
                cm = cmask | 1 << c0
                row = x * m
                for (z, k, bind) in rest:
                    c = color[row + emb[z]]
                    if bind:
                        if not c or cm >> c & 1:
                            break
                        cc[k] = c
                        cm |= 1 << c
                    elif c != cc[k]:
                        break
                else:
                    emb[w] = x
                    if not follow:
                        if rec(i + 1, used | 1 << x, cm):
                            return True
                        continue
                    u = used | 1 << x
                    for (v, fz, fk) in run:  # the forced run, to a count
                        y = via[emb[fz] * s + cc[fk]]
                        if u >> y & 1:
                            break
                        emb[v] = y
                        u |= 1 << y
                    else:
                        ends[emb[end]] += 1
            return False
        ends[emb[end]] += 1
        if vi is not None:  # enumerate_links lists its pair's links
            links.append(
                Link(
                    pattern=pat,
                    embedding=tuple(_vertex_of(n, x) for x in emb),
                    class_colors=tuple(zip(classes, cc)),
                )
            )
            return len(links) == limit
        return False

    try:
        rec(0, used, cmask)
    finally:
        del rec  # it refers to itself; free it with this call
    return ends, links


def _pair_ids(host: ProperColoring, u: Vertex, v: Vertex) -> tuple[int, int]:
    if u == v:
        raise ValueError("endpoints must be distinct")
    return _vertex_id(host.n, u), _vertex_id(host.n, v)


def enumerate_links(
    host: ProperColoring, u: Vertex, v: Vertex, pat: Pattern, limit: int | None = None
):
    """Every embedding of pat with start at u and end at v, exactly once, in
    a fixed deterministic order, or the first `limit` of them.
    Parity-impossible requests yield nothing.  A `limit` that is not an
    int or None raises TypeError."""
    check_limit(limit)
    ui, vi = _pair_ids(host, u, v)
    return _search(host, ui, vi, pat, limit)[1]


def count_links(host: ProperColoring, u: Vertex, v: Vertex, pat: Pattern) -> int:
    """Number of (u, v)-embeddings of pat, without materialising them.

    The first call for a start u searches once from u alone, counts the
    embeddings to every end and keeps the counts on the colouring, in
    ``host.link_counts`` under (u's vertex id, pat); a later call for the
    same u and pat is a lookup.  For ``repeat_pattern(k)`` that one search
    forces the end and costs about one pair search.  A pattern whose start
    does not force the end cheaply pays more for its first query: the path
    with classes 1, 2, 1 branches at two steps from the start alone, where
    a search with both endpoints placed branches at one."""
    ui, vi = _pair_ids(host, u, v)
    ends = host.link_counts.get((ui, pat))
    if ends is None:
        ends = host.link_counts[ui, pat] = _search(host, ui, None, pat, None)[0]
    return ends[vi]


def closed_alternating_walks(host: ProperColoring, u: Vertex) -> int:
    """Closed 2-coloured alternating 4-walks from u (each 2x2 subsquare
    through u is seen once per direction).  Together with the length-4
    repeat-pattern counts these satisfy an exact identity:
    sum over v of count_links(u, v, repeat_pattern(2)) plus this quantity
    equals n(n-1)."""
    n = host.n
    via, color = host.partners
    m, s = 2 * n, n + 1
    x = _vertex_id(n, u)
    lo = n if x < n else 0
    total = 0
    # u -> x1 (colour a) -> x2 (colour b != a) -> x3 (colour a) -> u?
    for x1 in range(lo, lo + n):
        a = color[x * m + x1]
        for b in range(1, n + 1):
            if b != a:
                x3 = via[via[x1 * s + b] * s + a]
                total += via[x3 * s + b] == x
    return total


def census_path_pairs(
    host: ProperColoring,
    length: int,
    endpoints: tuple[Vertex, Vertex, Vertex, Vertex],
    limit: int | None = None,
) -> CensusResult:
    """Ordered pairs (P1, P2) of vertex-disjoint paths with the same colour
    sequence: P1 from x1 to y1, P2 from x2 to y2, both of the given odd
    length.  P1 is enumerated, and each of its edges moves P2 one edge
    along the same colour from x2, so a branch ends at the first vertex of
    either path that is already on one of them.  The count stops at
    `limit` pairs when one is given.  A `length` that is not an int, or a
    `limit` that is not an int or None, raises TypeError.  The result holds
    the count and whether it saturated, not the time the call took.
    """
    if type(length) is not int:
        raise TypeError(f"length must be an int, got {type(length).__name__}")
    if length < 1:
        raise ValueError("path length must be positive")
    if length % 2 == 0:
        raise ValueError("path length must be odd")
    if len(endpoints) != 4:
        raise ValueError(f"expected four endpoints, got {len(endpoints)}")
    check_limit(limit)
    n = host.n
    x1, y1, x2, y2 = ids = [_vertex_id(n, p) for p in endpoints]
    if len(set(ids)) != 4:
        raise ValueError("the four endpoints must be distinct")
    if limit == 0 or (x1 < n) == (y1 < n) or (x2 < n) == (y2 < n):
        return CensusResult(count=0)
    via, color = host.partners
    m, s = 2 * n, n + 1
    cap = limit if limit is not None else float("inf")
    last = length - 1
    count = 0
    saturated = False

    def rec(a: int, b: int, depth: int, used: int) -> bool:
        # P1 is at a and P2 at b after `depth` edges; `used` holds both
        # paths and the two ends, which only the last edges may reach
        nonlocal count, saturated
        if depth == last:
            if via[b * s + color[a * m + y1]] == y2:
                if count >= INT64_MAX:
                    saturated = True
                else:
                    count += 1
            return count >= cap
        lo = n if a < n else 0
        row, b_s = a * m + lo, b * s
        for x, c in enumerate(color[row:row + n], lo):
            if used >> x & 1:
                continue
            z = via[b_s + c]
            both = used | 1 << x
            if both >> z & 1:
                continue
            if rec(x, z, depth + 1, both | 1 << z):
                return True
        return False

    try:
        rec(x1, x2, 0, 1 << x1 | 1 << y1 | 1 << x2 | 1 << y2)
    finally:
        del rec  # it refers to itself; free it with this call
    return CensusResult(count=count, saturated=saturated)


@dataclass(frozen=True)
class ProbeResult:
    estimate: float
    stderr: float
    hits: int
    trials: int
    exact: Fraction | None = None


def _check_probe_graph(edges, n: int) -> None:
    if len(edges) > 6:
        raise ValueError("probe graphs are limited to 6 edges")
    seen = set()
    at_row: dict[tuple[int, int], int] = {}
    at_col: dict[tuple[int, int], int] = {}
    for (a, b, c) in edges:
        if not (1 <= a <= n and 1 <= b <= n and 1 <= c <= n):
            raise ValueError(f"edge ({a},{b},{c}) out of range for order {n}")
        if (a, b) in seen:
            raise ValueError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        if at_row.get((a, c)) is not None or at_col.get((b, c)) is not None:
            raise ValueError("probe graph is not properly coloured")
        at_row[(a, c)] = b
        at_col[(b, c)] = a


def subgraph_probability_probe(
    edges,
    n: int,
    trials: int,
    rng: SeededRng,
) -> ProbeResult:
    """Probability that a uniform square's colouring contains the given
    coloured edges (same endpoints, same colours).

    `edges` is a list of (row, column, colour) triples forming a small
    properly coloured bipartite graph.  At n = 4 the probe is exact: it
    iterates all 576 squares, ignores `trials` and `rng`, and returns the
    rational probability.  At any other n it samples `trials` squares and
    the estimate comes with a binomial standard error.
    """
    edges = [tuple(e) for e in edges]
    _check_probe_graph(edges, n)

    def contains(sq: LatinSquare) -> bool:
        return all(sq.cells[a - 1][b - 1] == c for (a, b, c) in edges)

    if n == 4:
        hits = 0
        total = 0
        for sq in enumerate_all(4):
            total += 1
            if contains(sq):
                hits += 1
        frac = Fraction(hits, total)
        return ProbeResult(estimate=float(frac), stderr=0.0, hits=hits, trials=total, exact=frac)

    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    hits = 0
    for sq in sample_squares(n, rng, trials):
        if contains(sq):
            hits += 1
    p = hits / trials
    stderr = (p * (1 - p) / trials) ** 0.5
    return ProbeResult(estimate=p, stderr=stderr, hits=hits, trials=trials)
