import itertools
import json
import time

import pytest

from latinsq.core import cyclic_square, from_grid, to_coloring
from latinsq.links import (
    Pattern,
    census_path_pairs,
    closed_alternating_walks,
    count_links,
    enumerate_links,
    repeat_pattern,
    subgraph_probability_probe,
)
from latinsq.sampler import SeededRng, sample_uniform


def oracle_count(host, u, v, pat):
    """All-injections brute force, fully independent of the search."""
    n = host.n
    verts = [("A", i) for i in range(1, n + 1)] + [("B", i) for i in range(1, n + 1)]
    others = [w for w in range(pat.num_vertices) if w not in (pat.start, pat.end)]
    pool = [w for w in verts if w not in (u, v)]
    cnt = 0
    for assign in itertools.permutations(pool, len(others)):
        psi = {pat.start: u, pat.end: v}
        psi.update(dict(zip(others, assign)))
        cls_col: dict[int, int] = {}
        col_cls: dict[int, int] = {}
        ok = True
        for (a, b, cls) in pat.edges:
            pa, pb = psi[a], psi[b]
            if pa[0] == pb[0]:
                ok = False
                break
            ra, cb = (pa[1], pb[1]) if pa[0] == "A" else (pb[1], pa[1])
            c = host.edge_color(ra, cb)
            if cls in cls_col:
                if cls_col[cls] != c:
                    ok = False
                    break
            elif c in col_cls:
                ok = False
                break
            else:
                cls_col[cls] = c
                col_cls[c] = cls
        if ok:
            cnt += 1
    return cnt


def random_pattern(rnd, max_edges=6):
    """A random small simple pattern with random edge classes."""
    nv = rnd.randint(3, 6)
    possible = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    rnd.shuffle(possible)
    ne = rnd.randint(2, min(max_edges, len(possible)))
    edges = tuple((a, b, rnd.randint(1, 3)) for (a, b) in possible[:ne])
    start, end = rnd.sample(range(nv), 2)
    return Pattern(num_vertices=nv, edges=edges, start=start, end=end)


def test_repeat_pattern_shapes():
    p1 = repeat_pattern(1)
    assert [cls for (_a, _b, cls) in p1.edges] == [1, 1]
    p2 = repeat_pattern(2)
    assert [cls for (_a, _b, cls) in p2.edges] == [1, 2, 1, 2]
    p31 = repeat_pattern(31)
    assert len(p31.edges) == 62
    assert [cls for (_a, _b, cls) in p31.edges] == list(range(1, 32)) * 2
    assert p31.start == 0 and p31.end == 62


def test_single_edge_pattern_cases():
    host = to_coloring(cyclic_square(5))
    pe = Pattern(num_vertices=2, edges=((0, 1, 1),), start=0, end=1)
    links = enumerate_links(host, ("A", 2), ("B", 3), pe)
    assert len(links) == 1
    assert enumerate_links(host, ("A", 2), ("A", 3), pe) == []


def test_odd_cycles_have_no_links():
    # An odd cycle cannot map into the bipartite host: a triangle, and a
    # 5-cycle hanging off a pendant path from the start, each with distinct
    # and with repeated classes, find no link between any pair at any limit.
    triangles = [
        Pattern(num_vertices=3, edges=((0, 1, 1), (1, 2, 2), (2, 0, 3)), start=0, end=2),
        Pattern(num_vertices=3, edges=((0, 1, 1), (1, 2, 2), (2, 0, 1)), start=0, end=1),
    ]
    cycles = [
        Pattern(num_vertices=7, edges=((0, 1, 1), (1, 2, 2)) + tuple(
            (2 + t, 2 + (t + 1) % 5, cls) for t, cls in enumerate(classes)), start=0, end=4)
        for classes in ((3, 4, 5, 6, 7), (1, 2, 1, 2, 3))
    ]
    for n in range(3, 8):
        host = to_coloring(sample_uniform(n, SeededRng(2626).derive(n), burnin=100))
        verts = [(side, i) for side in "AB" for i in range(1, n + 1)]
        for pat in triangles + cycles:
            for u, v in itertools.permutations(verts, 2):
                assert count_links(host, u, v, pat) == 0
            for limit in (None, 0, 1, 2):
                for u, v in itertools.permutations(verts, 2):
                    assert enumerate_links(host, u, v, pat, limit) == []


def test_l1_between_same_class_always_zero():
    for n in (3, 4, 5, 6):
        host = to_coloring(cyclic_square(n))
        pat = repeat_pattern(1)
        for v in range(2, n + 1):
            assert count_links(host, ("A", 1), ("A", v), pat) == 0


def test_klein_square_has_no_l2_links():
    sq = from_grid([[(r ^ c) + 1 for c in range(4)] for r in range(4)])
    host = to_coloring(sq)
    pat = repeat_pattern(2)
    for u, v in itertools.permutations(range(1, 5), 2):
        assert count_links(host, ("A", u), ("A", v), pat) == 0
        assert count_links(host, ("B", u), ("B", v), pat) == 0


def test_enumerate_links_duplicate_free_and_valid():
    sq = sample_uniform(6, SeededRng(31).derive(0), burnin=500)
    host = to_coloring(sq)
    pat = repeat_pattern(2)
    links = enumerate_links(host, ("A", 1), ("A", 3), pat)
    seen = set()
    for link in links:
        assert link.embedding not in seen
        seen.add(link.embedding)
        emb = link.embedding
        assert emb[pat.start] == ("A", 1) and emb[pat.end] == ("A", 3)
        assert len(set(emb)) == len(emb)
        colors = dict(link.class_colors)
        assert len(set(colors.values())) == len(colors)
        for (a, b, cls) in pat.edges:
            pa, pb = emb[a], emb[b]
            ra, cb = (pa[1], pb[1]) if pa[0] == "A" else (pb[1], pa[1])
            assert host.edge_color(ra, cb) == colors[cls]


def test_count_links_matches_oracle_randomised():
    import random

    rnd = random.Random(2025)
    hosts = [to_coloring(cyclic_square(n)) for n in (4, 5)]
    hosts.append(to_coloring(sample_uniform(5, SeededRng(77).derive(0), burnin=400)))
    checked = 0
    for _ in range(60):
        host = rnd.choice(hosts)
        pat = random_pattern(rnd, max_edges=5)
        n = host.n
        side_u = rnd.choice("AB")
        side_v = rnd.choice("AB")
        u = (side_u, rnd.randint(1, n))
        v = (side_v, rnd.randint(1, n))
        if u == v:
            continue
        got = count_links(host, u, v, pat)
        want = oracle_count(host, u, v, pat)
        assert got == want, (pat, u, v, got, want)
        checked += 1
    assert checked > 40


def test_l2_identity_small():
    for n in (4, 5, 7):
        host = to_coloring(cyclic_square(n))
        pat = repeat_pattern(2)
        for side in "AB":
            u = (side, 1)
            total = sum(
                count_links(host, u, (side, v), pat) for v in range(2, n + 1)
            )
            assert total + closed_alternating_walks(host, u) == n * (n - 1)


def test_closed_walks_match_direct_enumeration():
    sq = sample_uniform(5, SeededRng(7).derive(1), burnin=400)
    host = to_coloring(sq)
    n = 5
    u = ("A", 2)
    # direct: ordered choices (x1, x2) whose forced walk closes
    direct = 0
    for x1 in range(1, n + 1):
        a = host.edge_color(2, x1)
        for x2 in range(1, n + 1):
            if x2 == 2:
                continue
            b = host.edge_color(x2, x1)
            if b == a:
                continue
            x3 = next(c for c in range(1, n + 1) if host.edge_color(x2, c) == a)
            back = next(r for r in range(1, n + 1) if host.edge_color(r, x3) == b)
            if back == 2 and x3 != x1:
                direct += 1
    assert closed_alternating_walks(host, u) == direct


def naive_path_pairs(host, length, endpoints):
    (x1, y1, x2, y2) = endpoints
    n = host.n

    def paths(x, y):
        out = []

        def rec(cur, seq):
            if len(seq) == length:
                if cur == y:
                    out.append(tuple(seq))
                return
            side = "B" if cur[0] == "A" else "A"
            last = len(seq) == length - 1
            for t in range(1, n + 1):
                nxt = (side, t)
                if nxt in seq or nxt == x:
                    continue
                if last and nxt != y:
                    continue
                if not last and nxt == y:
                    continue
                seq.append(nxt)
                rec(nxt, seq)
                seq.pop()

        rec(x, [])
        return out

    def colors(x, seq):
        cur = x
        cs = []
        for nxt in seq:
            ra, cb = (cur[1], nxt[1]) if cur[0] == "A" else (nxt[1], cur[1])
            cs.append(host.edge_color(ra, cb))
            cur = nxt
        return cs

    count = 0
    p1s = paths(x1, y1)
    p2s = paths(x2, y2)
    for p1 in p1s:
        s1 = set(p1) | {x1}
        c1 = colors(x1, list(p1))
        for p2 in p2s:
            if s1 & (set(p2) | {x2}):
                continue
            if colors(x2, list(p2)) == c1:
                count += 1
    return count


def test_census_matches_naive_oracle_small():
    for n in (4, 5, 6):
        sq = sample_uniform(n, SeededRng(55).derive(n), burnin=300)
        host = to_coloring(sq)
        endpoints = (("A", 1), ("B", 1), ("A", 2), ("B", 2))
        got = census_path_pairs(host, 3, endpoints)
        assert got.count == naive_path_pairs(host, 3, endpoints)


def test_census_symmetry_and_parity():
    sq = sample_uniform(6, SeededRng(56).derive(0), burnin=300)
    host = to_coloring(sq)
    a = census_path_pairs(host, 3, (("A", 1), ("B", 2), ("A", 3), ("B", 4)))
    b = census_path_pairs(host, 3, (("A", 3), ("B", 4), ("A", 1), ("B", 2)))
    assert a.count == b.count
    zero = census_path_pairs(host, 3, (("A", 1), ("A", 2), ("B", 1), ("B", 2)))
    assert zero.count == 0  # same-class endpoints cannot carry odd paths


def test_census_limit():
    host = to_coloring(sample_uniform(8, SeededRng(56).derive(1), burnin=300))
    endpoints = (("A", 1), ("B", 1), ("A", 2), ("B", 2))
    assert census_path_pairs(host, 5, endpoints).count == 29
    assert census_path_pairs(host, 5, endpoints, limit=2).count == 2
    assert census_path_pairs(host, 5, endpoints, limit=0).count == 0
    with pytest.raises(ValueError, match="limit must be non-negative"):
        census_path_pairs(host, 5, endpoints, limit=-1)
    # a limit that is not an int is refused, not rounded up
    for limit in (1.5, "2"):
        with pytest.raises(TypeError, match="limit must be an int"):
            census_path_pairs(host, 5, endpoints, limit=limit)


def test_enumerate_links_limit():
    host = to_coloring(cyclic_square(7))
    u, v, pat = ("A", 1), ("A", 2), repeat_pattern(2)
    links = enumerate_links(host, u, v, pat)
    assert len(links) == 7
    assert enumerate_links(host, u, v, pat, limit=3) == links[:3]
    assert enumerate_links(host, u, v, pat, limit=0) == []
    with pytest.raises(ValueError, match="limit must be non-negative"):
        enumerate_links(host, u, v, pat, limit=-2)
    # a limit that is not an int is refused, not ignored
    for limit in (1.5, "2"):
        with pytest.raises(TypeError, match="limit must be an int"):
            enumerate_links(host, u, v, pat, limit=limit)


def test_census_order2_too_small():
    host = to_coloring(cyclic_square(2))
    res = census_path_pairs(host, 3, (("A", 1), ("B", 1), ("A", 2), ("B", 2)))
    assert res.count == 0


def test_census_reports_at_desk_scale():
    # larger-order counts are reported, not bounded; spot that the census
    # stays cheap and well-formed at order 30
    sq = sample_uniform(30, SeededRng(660).derive(0), burnin=3000)
    host = to_coloring(sq)
    t0 = time.perf_counter()
    res = census_path_pairs(host, 3, (("A", 1), ("B", 7), ("A", 12), ("B", 20)))
    assert time.perf_counter() - t0 < 10.0
    assert res.count >= 0 and not res.saturated


def test_probe_exact_values():
    res = subgraph_probability_probe([(1, 1, 1)], 4, 0, SeededRng(0))
    assert res.exact is not None and res.exact.numerator == 1 and res.exact.denominator == 4
    res2 = subgraph_probability_probe([(1, 1, 1), (2, 2, 1)], 4, 0, SeededRng(0))
    assert (res2.exact.numerator, res2.exact.denominator) == (1, 12)


def test_probe_exact_is_deterministic():
    a = subgraph_probability_probe([(1, 2, 3)], 4, 0, SeededRng(1))
    b = subgraph_probability_probe([(1, 2, 3)], 4, 0, SeededRng(2))
    assert a.exact == b.exact


def test_probe_sampled_consistency():
    res = subgraph_probability_probe([(1, 1, 1)], 6, 800, SeededRng(909).derive(0))
    assert abs(res.estimate - 1 / 6) < 4 * max(res.stderr, 1e-9) + 1e-12


def test_probe_rejects_improper():
    with pytest.raises(ValueError, match="properly coloured"):
        subgraph_probability_probe([(1, 1, 1), (1, 2, 1)], 4, 0, SeededRng(0))
    with pytest.raises(ValueError, match="6 edges"):
        subgraph_probability_probe(
            [(1, b, b) for b in range(1, 8)], 8, 0, SeededRng(0)
        )


def test_probe_sampled_needs_a_trial():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be positive"):
            subgraph_probability_probe([(1, 1, 1)], 7, trials, SeededRng(0))


def test_pattern_json_round_trip():
    pat = repeat_pattern(3)
    back = Pattern.from_json(pat.to_json())
    assert back == pat
    data = json.loads(pat.to_json())
    assert data["vertices"] == 7 and data["start"] == 1 and data["end"] == 7


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(num_vertices=3, edges=((0, 1, 1), (1, 0, 2)), start=0, end=2)
    with pytest.raises(ValueError):
        Pattern(num_vertices=2, edges=((0, 1, 0),), start=0, end=1)
    with pytest.raises(ValueError):
        Pattern(num_vertices=2, edges=((0, 1, 1),), start=0, end=0)


def _link_text(link):
    emb = " ".join(f"{side}{i}" for side, i in link.embedding)
    return emb + " | " + " ".join(f"{cls}:{c}" for cls, c in link.class_colors)


# First six embeddings of enumerate_links(..., limit=6) and the full count,
# recorded from the tuple-vertex search that preceded the integer engine.
# The rainbow tests and criterion 7 pick links by position, so the order is
# part of the contract: ascending (side, index) per elimination step.
PINNED_LINKS = [
    ("rp2", ("A", 1), ("A", 5), 6, [
        "A1 B1 A8 B6 A5 | 1:3 2:1",
        "A1 B5 A2 B7 A5 | 1:7 2:4",
        "A1 B5 A6 B2 A5 | 1:7 2:5",
        "A1 B7 A2 B4 A5 | 1:6 2:7",
        "A1 B8 A3 B2 A5 | 1:4 2:5",
        "A1 B8 A8 B4 A5 | 1:4 2:7",
    ]),
    ("rp2", ("B", 2), ("B", 7), 7, [
        "B2 A1 B4 A7 B7 | 1:1 2:5",
        "B2 A4 B3 A5 B7 | 1:6 2:4",
        "B2 A4 B5 A8 B7 | 1:6 2:2",
        "B2 A5 B5 A6 B7 | 1:5 2:8",
        "B2 A5 B8 A3 B7 | 1:5 2:3",
        "B2 A6 B3 A3 B7 | 1:7 2:3",
    ]),
    ("rp3", ("A", 3), ("A", 8), 36, [
        "A3 B1 A4 B4 A2 B6 A8 | 1:6 2:5 3:3",
        "A3 B1 A5 B4 A2 B8 A8 | 1:6 2:2 3:7",
        "A3 B2 A1 B3 A4 B7 A8 | 1:4 2:1 3:2",
        "A3 B2 A2 B7 A5 B8 A8 | 1:4 2:3 3:7",
        "A3 B2 A4 B6 A7 B8 A8 | 1:4 2:6 3:7",
        "A3 B2 A6 B3 A4 B6 A8 | 1:4 2:7 3:3",
    ]),
    ("rp3", ("B", 4), ("B", 1), 36, [
        "B4 A1 B2 A3 B8 A6 B1 | 1:5 2:1 3:4",
        "B4 A1 B2 A8 B3 A2 B1 | 1:5 2:1 3:8",
        "B4 A1 B5 A3 B8 A8 B1 | 1:5 2:7 3:1",
        "B4 A1 B5 A8 B3 A3 B1 | 1:5 2:7 3:6",
        "B4 A1 B6 A5 B2 A8 B1 | 1:5 2:8 3:1",
        "B4 A1 B6 A7 B7 A6 B1 | 1:5 2:8 3:4",
    ]),
    # start and end in different components, plus a third free component
    # whose first vertex tries rows before columns
    ("split", ("A", 6), ("B", 3), 420, [
        "A6 B1 B3 A1 A2 B5 | 1:4 2:2",
        "A6 B1 B3 A1 A3 B2 | 1:4 2:2",
        "A6 B1 B3 A1 A5 B7 | 1:4 2:2",
        "A6 B1 B3 A1 A7 B6 | 1:4 2:2",
        "A6 B1 B3 A1 A8 B4 | 1:4 2:2",
        "A6 B1 B3 A1 B2 A3 | 1:4 2:2",
    ]),
]


@pytest.mark.parametrize("case", PINNED_LINKS, ids=lambda c: f"{c[0]}-{c[1][0]}{c[2][0]}")
def test_enumeration_order_pinned(case):
    name, u, v, total, first = case
    host = to_coloring(sample_uniform(8, SeededRng(808).derive(0), burnin=1000))
    pat = {
        "rp2": repeat_pattern(2),
        "rp3": repeat_pattern(3),
        "split": Pattern(num_vertices=6, edges=((0, 1, 1), (2, 3, 2), (4, 5, 1)), start=0, end=2),
    }[name]
    assert [_link_text(link) for link in enumerate_links(host, u, v, pat, limit=6)] == first
    assert count_links(host, u, v, pat) == total
    assert [_link_text(link) for link in enumerate_links(host, u, v, pat)][:6] == first


def test_repeat3_counts_match_forced_walks_order13():
    # For repeat_pattern(3) from row r0 every ordered triple of distinct
    # colours (a, b, c) forces the walk a, b, c, a, b, c; it is a link
    # exactly when its seven vertices are distinct.  Tally walks by end row.
    n = 13
    sq = sample_uniform(n, SeededRng(1313).derive(0), burnin=10 * n * n)
    col_of = {(r, sq.symbol(r, c)): c for r in range(1, n + 1) for c in range(1, n + 1)}
    row_of = {(c, sq.symbol(r, c)): r for r in range(1, n + 1) for c in range(1, n + 1)}
    r0 = 4
    ends = {r: 0 for r in range(1, n + 1)}
    for a, b, c in itertools.permutations(range(1, n + 1), 3):
        r, rows, cols = r0, {r0}, set()
        for x, y in ((a, b), (c, a), (b, c)):
            col = col_of[r, x]
            r = row_of[col, y]
            if col in cols or r in rows:
                break
            cols.add(col)
            rows.add(r)
        else:
            ends[r] += 1
    host = to_coloring(sq)
    pat = repeat_pattern(3)
    got = {v: count_links(host, ("A", r0), ("A", v), pat) for v in range(1, n + 1) if v != r0}
    assert got == {v: ends[v] for v in got}
    assert sum(got.values()) > 0


def test_census_length5_matches_naive_oracle_order6():
    # two disjoint length-5 paths cover all twelve vertices of K_{6,6}, so
    # most endpoint sets count 0; the total over these is positive
    total = 0
    for seed in (5656, 5657):
        host = to_coloring(sample_uniform(6, SeededRng(seed).derive(0), burnin=400))
        for endpoints in [
            (("A", 1), ("B", 1), ("A", 2), ("B", 2)),
            (("B", 3), ("A", 5), ("B", 6), ("A", 2)),
            (("A", 1), ("B", 2), ("A", 3), ("B", 4)),
        ]:
            want = naive_path_pairs(host, 5, endpoints)
            assert census_path_pairs(host, 5, endpoints).count == want
            total += want
    assert total > 0


def test_partner_table_inverts_edge_color():
    for host in (
        to_coloring(cyclic_square(1)),
        to_coloring(cyclic_square(4)),
        to_coloring(sample_uniform(9, SeededRng(99).derive(0), burnin=800)),
    ):
        n = host.n
        table = host.partners
        assert host.partners is table  # built once per colouring
        via, color = table
        for x in range(2 * n):
            side, i = ("A", x + 1) if x < n else ("B", x - n + 1)
            for c in range(1, n + 1):
                y = via[x * (n + 1) + c]
                j = y + 1 if y < n else y - n + 1
                assert (y < n) != (x < n)
                assert (host.edge_color(i, j) if side == "A" else host.edge_color(j, i)) == c
                assert color[x * 2 * n + y] == color[y * 2 * n + x] == c
            for y in range(2 * n):
                if (y < n) == (x < n):
                    assert color[x * 2 * n + y] == 0


def test_link_functions_reject_bad_vertices():
    host = to_coloring(cyclic_square(7))
    for bad in (("A", 0), ("A", 8), ("C", 1), ["A", 1]):
        with pytest.raises(ValueError, match="bad vertex"):
            count_links(host, bad, ("A", 2), repeat_pattern(2))
        with pytest.raises(ValueError, match="bad vertex"):
            closed_alternating_walks(host, bad)
        with pytest.raises(ValueError, match="bad vertex"):
            census_path_pairs(host, 3, (("A", 1), bad, ("A", 2), ("B", 2)))
    with pytest.raises(ValueError, match="expected four endpoints, got 3"):
        census_path_pairs(host, 3, (("A", 1), ("B", 1), ("A", 2)))
    with pytest.raises(ValueError, match="the four endpoints must be distinct"):
        census_path_pairs(host, 3, (("A", 1), ("B", 1), ("A", 1), ("B", 2)))


# --- per-start link counts kept on the colouring ------------------------------


def memo_pattern(rnd, extra, max_vertices):
    """A path from the start whose first k edges take distinct classes and
    whose later edges repeat them, as in repeat_pattern(k), so that the
    plan with only the start placed forces the end; its length fixes the
    end's side.  `extra` adds a separate edge (disconnected) or a separate
    triangle (not bipartite).  A triangle needs ``max_vertices`` >= 7."""
    while True:
        k = rnd.randint(2, 3)
        classes = list(range(1, k + 1))
        for _ in range(rnd.randint(1, 2)):
            classes.append(rnd.choice([c for c in range(1, k + 1) if c != classes[-1]]))
        edges = [(t, t + 1, c) for t, c in enumerate(classes)]
        nv = len(classes) + 1
        if extra == "edge":
            edges.append((nv, nv + 1, rnd.randint(1, k + 1)))
            nv += 2
        elif extra == "triangle":
            edges += [(nv, nv + 1, 1), (nv + 1, nv + 2, 2), (nv, nv + 2, 3)]
            nv += 3
        if nv <= max_vertices:
            return Pattern(num_vertices=nv, edges=tuple(edges), start=0, end=len(classes))


def test_count_links_memo_matches_oracle():
    import random

    rnd = random.Random(1313)
    squares = [
        (cyclic_square(4), 8),
        (sample_uniform(4, SeededRng(1314).derive(0), burnin=300), 8),
        (sample_uniform(5, SeededRng(1315).derive(0), burnin=400), 6),
    ]
    oracle: dict = {}
    memoised = set()
    for sq, max_vertices in squares:
        n = sq.n
        verts = [(side, i) for side in "AB" for i in range(1, n + 1)]
        kinds = ("path", "edge", "triangle")[: 3 if max_vertices >= 7 else 2]
        pats = [(kind, memo_pattern(rnd, kind, max_vertices)) for kind in kinds for _ in range(3)]
        starts = rnd.sample(verts, 3)
        for sweep in ("ascending", "descending", "interleaved"):
            host = to_coloring(sq)
            queries = [(kind, pat, u, v) for kind, pat in pats for u in starts for v in verts]
            if sweep == "descending":
                queries.reverse()
            elif sweep == "interleaved":
                rnd.shuffle(queries)
            for kind, pat, u, v in queries:
                if u == v:
                    continue
                key = (sq, pat, u, v)
                if key not in oracle:
                    oracle[key] = oracle_count(host, u, v, pat)
                assert count_links(host, u, v, pat) == oracle[key], (kind, pat, u, v, sweep)
                ui = u[1] - 1 if u[0] == "A" else n + u[1] - 1
                if (ui, pat) in host.link_counts:
                    memoised.add(kind)
    # every kind was served from the memo at least once, and linked somewhere
    assert memoised == {"path", "edge", "triangle"}
    assert any(oracle[key] for key in oracle if key[1].num_vertices <= 6)


def test_count_links_memo_keeps_validation():
    host = to_coloring(sample_uniform(7, SeededRng(1316).derive(0), burnin=400))
    pat = repeat_pattern(2)
    counts = [count_links(host, ("B", 3), ("B", v), pat) for v in range(1, 8) if v != 3]
    assert len(host.link_counts) == 1
    with pytest.raises(ValueError, match="endpoints must be distinct"):
        count_links(host, ("B", 3), ("B", 3), pat)
    for bad in (("B", 0), ("B", 8), ("C", 3), ["B", 4]):
        with pytest.raises(ValueError, match="bad vertex"):
            count_links(host, ("B", 3), bad, pat)
    assert [count_links(host, ("B", 3), ("B", v), pat) for v in range(1, 8) if v != 3] == counts


def test_fresh_coloring_starts_with_an_empty_memo():
    sq = sample_uniform(6, SeededRng(1317).derive(0), burnin=400)
    first = to_coloring(sq)
    count_links(first, ("A", 1), ("A", 2), repeat_pattern(3))
    assert list(first.link_counts) == [(0, repeat_pattern(3))]
    second = to_coloring(sq)
    assert second == first  # equal by value, yet it shares no counts
    assert second.link_counts == {}
    assert second.link_counts is not first.link_counts


def test_count_links_searches_once_per_start_and_pattern(monkeypatch):
    import latinsq.links as links

    plans = []
    real_plan = links._plan

    def counting_plan(pat, first):
        plans.append((pat, first))
        return real_plan(pat, first)

    monkeypatch.setattr(links, "_plan", counting_plan)
    host = to_coloring(cyclic_square(7))
    # classes 1, 2, 1: the start alone does not force the end cheaply,
    # yet its counts to every end come from one search as well
    path = Pattern(num_vertices=4, edges=((0, 1, 1), (1, 2, 2), (2, 3, 1)), start=0, end=3)
    pats = [path] + [repeat_pattern(k) for k in (1, 2, 3)]
    starts = [("A", 1), ("B", 3)]
    ends = [(side, i) for side in "AB" for i in range(1, 8)]
    linked = set()
    for u in starts:
        for pat in pats:
            plans.clear()
            for v in ends:
                if v != u:
                    got = count_links(host, u, v, pat)
                    assert got == oracle_count(host, u, v, pat), (pat, u, v)
                    if got:
                        linked.add(pat)
            assert plans == [(pat, (pat.start,))], (pat, u)
    assert {path, repeat_pattern(2)} <= linked
    # A1 and B3 are vertex ids 0 and 9
    assert set(host.link_counts) == {(ui, pat) for ui in (0, 9) for pat in pats}


def _digest(parts) -> str:
    import hashlib

    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()[:16]


def test_enumerate_links_digest_unchanged():
    # recorded from the pair search before link counts were kept per start
    import random

    rnd = random.Random(1306)
    hosts = [
        to_coloring(cyclic_square(6)),
        to_coloring(sample_uniform(7, SeededRng(1307).derive(0), burnin=500)),
    ]
    pats = [
        repeat_pattern(2),
        repeat_pattern(3),
        Pattern(num_vertices=6, edges=((0, 1, 1), (2, 3, 2), (4, 5, 1)), start=0, end=2),
        Pattern(num_vertices=4, edges=((0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)), start=0, end=2),
    ]
    parts = []
    for host in hosts:
        n = host.n
        for pat in pats:
            for _ in range(4):
                u = (rnd.choice("AB"), rnd.randint(1, n))
                v = (rnd.choice("AB"), rnd.randint(1, n))
                if u == v:
                    continue
                for limit in (None, 0, 1, 5):
                    parts += [_link_text(link) for link in enumerate_links(host, u, v, pat, limit)]
                    parts.append("/")
    assert len(parts) > 400
    assert _digest(parts) == "4f37724496bdc4ef"


def test_identity_sweep_counts_digest_unchanged():
    # every start and end of repeat_pattern(2) and (3) on three sampled
    # squares, recorded from the pair search
    parts = []
    for seed, n in ((1311, 9), (1312, 11), (1313, 12)):
        host = to_coloring(sample_uniform(n, SeededRng(seed).derive(0), burnin=10 * n * n))
        for k in (2, 3):
            pat = repeat_pattern(k)
            for side in "AB":
                for a in range(1, n + 1):
                    counts = [
                        count_links(host, (side, a), (side, b), pat) for b in range(1, n + 1) if b != a
                    ]
                    parts.append(repr(counts))
    assert _digest(parts) == "54243cea74590594"
