"""Acceptance suite: every reproduction claim at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s to see
them); tolerances and trial counts are pinned here, not configurable.
"""

import itertools
import random
import time
from collections import Counter

from latinsq.absorber import (
    build_connector,
    check_conservation,
    decompose_corrections,
    random_correction_instance,
    route_pairs,
    verify_corrections,
)
from latinsq.core import cyclic_decomposition, cyclic_square, to_coloring
from latinsq.links import (
    census_path_pairs,
    closed_alternating_walks,
    count_links,
    repeat_pattern,
    subgraph_probability_probe,
)
from latinsq.rainbow import (
    apply_switcher,
    find_switcher,
    make_family,
    validate_switcher,
)
from latinsq.sampler import SeededRng, enumerate_reduced, sample_squares, sample_uniform
from latinsq.transversal import (
    count_transversals,
    decompose,
    max_partial_transversal,
    verify_decomposition,
)
from latinsq.links import enumerate_links

# Frozen master seeds.  The sampler chain is derived from numpy Philox
# streams, so the draws (and every figure below) are machine-independent.
MC_SEED = 777
FREQ_SEED = 1414  # fixed before criterion 12 was first run; never re-drawn
SWITCHER_SEED = 4242
LINKS_SEED = 1717
IDENTITY_SEED = 90210
ABSORBER_SEED = 31415
CONNECTOR_SEED = 27182


def _report(num: int, name: str, detail: str) -> None:
    print(f"PASS criterion {num} ({name}): {detail}")


def test_criterion_01_tarry_reproduction():
    t0 = time.perf_counter()
    examined = 0
    resolvable = 0
    undecided = 0
    for square in enumerate_reduced(6):
        examined += 1
        res = decompose(square)
        if res.status == "some":
            resolvable += 1
        elif res.status == "undecided":
            undecided += 1
    elapsed = time.perf_counter() - t0
    assert examined == 9408
    assert resolvable == 0
    assert undecided == 0
    assert elapsed < 600
    _report(1, "order-6 scan", f"{examined} reduced squares, 0 resolvable, {elapsed:.1f}s")


def test_criterion_02_even_cyclic_transversal_free():
    t0 = time.perf_counter()
    counts = {2 * m: count_transversals(cyclic_square(2 * m)) for m in (1, 2, 3, 4, 5)}
    elapsed = time.perf_counter() - t0
    assert all(c == 0 for c in counts.values()), counts
    assert elapsed < 60
    _report(2, "even cyclic squares", f"orders {sorted(counts)} all transversal-free, {elapsed:.2f}s")


def test_criterion_03_cyclic_decompositions():
    t0 = time.perf_counter()
    for n in (1, 3, 5, 7, 9, 11):
        ok, msg = verify_decomposition(cyclic_square(n), cyclic_decomposition(n))
        assert ok, (n, msg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    _report(3, "cyclic decompositions", f"orders 1,3,5,7,9,11 verified, {elapsed:.2f}s")


def test_criterion_04_transversal_count_oracle():
    t0 = time.perf_counter()

    def naive(square):
        n = square.n
        return sum(
            1
            for perm in itertools.permutations(range(1, n + 1))
            if len({square.symbol(r, perm[r - 1]) for r in range(1, n + 1)}) == n
        )

    checked = 0
    for n in range(1, 6):
        for sq in enumerate_reduced(n):
            assert count_transversals(sq) == naive(sq)
            checked += 1
    expected = {1: 1, 2: 0, 3: 3, 4: 0, 5: 15, 6: 0, 7: 133}
    for n, want in expected.items():
        sq = cyclic_square(n)
        got = count_transversals(sq)
        assert got == want == naive(sq)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(4, "count oracle", f"{checked} squares agree with the n! oracle, {elapsed:.1f}s")


def test_criterion_05_monte_carlo_order10():
    t0 = time.perf_counter()
    trials = 100
    some = undecided = 0
    for t in range(trials):
        rng = SeededRng(MC_SEED).derive(t)
        sq = sample_uniform(10, rng)
        res = decompose(sq)
        if res.status == "some":
            ok, msg = verify_decomposition(sq, res.decomposition)
            assert ok, msg
            some += 1
        elif res.status == "undecided":
            undecided += 1
    elapsed = time.perf_counter() - t0
    fraction = some / trials
    assert undecided == 0
    assert fraction > 0.5, fraction
    assert elapsed < 1800
    _report(5, "order-10 Monte Carlo", f"fraction {fraction:.2f} resolvable, 0 undecided, {elapsed:.0f}s")


def test_criterion_06_partial_transversals():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for sq in enumerate_reduced(n):
            assert max_partial_transversal(sq).size >= n - 1
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 900
    _report(6, "partial transversals", f"{checked} reduced squares at size >= n-1, {elapsed:.1f}s")


def _planted_families(seed: int, cycles: int):
    """Order-8 families carrying a known switcher-shaped path each."""
    rnd = random.Random(seed)
    squares = [
        sample_uniform(8, SeededRng(seed).derive(t), burnin=2000) for t in range(12)
    ]
    produced = 0
    while produced < cycles:
        sq = rnd.choice(squares)
        host = to_coloring(sq)
        side = rnd.choice("AB")
        x = (side, rnd.randint(1, 8))
        y = (side, rnd.randint(1, 8))
        if x == y:
            continue
        k = 5 if rnd.random() < 0.1 else 3  # halves must be rainbow: odd k only
        links = enumerate_links(host, x, y, repeat_pattern(k), limit=4)
        if not links:
            continue
        link = rnd.choice(links)
        emb = link.embedding
        edges = []
        for t in range(2 * k):
            pa, pb = emb[t], emb[t + 1]
            a, b = (pa[1], pb[1]) if pa[0] == "A" else (pb[1], pa[1])
            edges.append((a, b))
        fam = make_family(host, [edges[0::2], edges[1::2]])
        produced += 1
        yield fam, x, y, k


def test_criterion_07_switcher_algebra():
    t0 = time.perf_counter()
    cycles = 0
    for fam, x, y, k in _planted_families(SWITCHER_SEED, 1000):
        sw = find_switcher(fam, 1, 2, x, y, max_len=2 * k)
        assert sw is not None, (x, y, k)
        assert validate_switcher(fam, sw) is None
        after = apply_switcher(fam, sw)
        # edge multiset across the pair is preserved
        assert sorted(fam.matchings[0] + fam.matchings[1]) == sorted(
            after.matchings[0] + after.matchings[1]
        )
        # colour sets preserved per matching
        for i in range(2):
            assert {c for (_a, _b, c) in fam.matchings[i]} == {
                c for (_a, _b, c) in after.matchings[i]
            }
        # degree change localised to x and y
        def degs(edges):
            d = Counter()
            for (a, b, _c) in edges:
                d[("A", a)] += 1
                d[("B", b)] += 1
            return d

        for i in range(2):
            before, now = degs(fam.matchings[i]), degs(after.matchings[i])
            delta = +1 if i == 0 else -1
            assert before[x] - now[x] == delta
            assert now[y] - before[y] == delta
            for v in set(before) | set(now):
                if v not in (x, y):
                    assert before[v] == now[v]
        # double application restores the family exactly
        assert apply_switcher(after, sw.transposed()) == fam
        cycles += 1
    elapsed = time.perf_counter() - t0
    assert cycles == 1000
    _report(7, "switcher algebra", f"{cycles} find/apply cycles, exact restores, {elapsed:.0f}s")


def _oracle_count(host, u, v, pat):
    n = host.n
    verts = [("A", i) for i in range(1, n + 1)] + [("B", i) for i in range(1, n + 1)]
    others = [w for w in range(pat.num_vertices) if w not in (pat.start, pat.end)]
    pool = [w for w in verts if w not in (u, v)]
    cnt = 0
    for assign in itertools.permutations(pool, len(others)):
        psi = {pat.start: u, pat.end: v}
        psi.update(dict(zip(others, assign)))
        cls_col: dict = {}
        col_cls: dict = {}
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


def _naive_path_pairs(host, length, endpoints):
    (x1, y1, x2, y2) = endpoints
    n = host.n

    def all_paths(x, y):
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
                if nxt in seq or nxt == x or (last and nxt != y) or (not last and nxt == y):
                    continue
                seq.append(nxt)
                rec(nxt, seq)
                seq.pop()

        rec(x, [])
        return out

    def colors(x, seq):
        cur, cs = x, []
        for nxt in seq:
            ra, cb = (cur[1], nxt[1]) if cur[0] == "A" else (nxt[1], cur[1])
            cs.append(host.edge_color(ra, cb))
            cur = nxt
        return cs

    count = 0
    for p1 in all_paths(x1, y1):
        s1 = set(p1) | {x1}
        c1 = colors(x1, list(p1))
        for p2 in all_paths(x2, y2):
            if s1 & (set(p2) | {x2}):
                continue
            if colors(x2, list(p2)) == c1:
                count += 1
    return count


def test_criterion_08_link_oracle_equivalence():
    from latinsq.links import Pattern

    t0 = time.perf_counter()
    rnd = random.Random(LINKS_SEED)
    hosts = [to_coloring(cyclic_square(n)) for n in (3, 4, 5, 6)]
    for t in range(4):
        hosts.append(
            to_coloring(sample_uniform(rnd.choice((4, 5, 6)), SeededRng(LINKS_SEED).derive(t), burnin=600))
        )
    cases = 0
    while cases < 1000:
        host = rnd.choice(hosts)
        nv = rnd.randint(3, 6)
        possible = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
        rnd.shuffle(possible)
        ne = rnd.randint(2, min(6, len(possible)))
        edges = tuple((a, b, rnd.randint(1, 3)) for (a, b) in possible[:ne])
        start, end = rnd.sample(range(nv), 2)
        pat = Pattern(num_vertices=nv, edges=edges, start=start, end=end)
        u = (rnd.choice("AB"), rnd.randint(1, host.n))
        v = (rnd.choice("AB"), rnd.randint(1, host.n))
        if u == v:
            continue
        assert count_links(host, u, v, pat) == _oracle_count(host, u, v, pat)
        cases += 1
    census_checked = 0
    for n in (4, 5, 6):
        host = to_coloring(sample_uniform(n, SeededRng(LINKS_SEED).derive(100 + n), burnin=600))
        for endpoints in [
            (("A", 1), ("B", 1), ("A", 2), ("B", 2)),
            (("A", 1), ("B", 2), ("A", 3), ("B", 1)),
        ]:
            got = census_path_pairs(host, 3, endpoints)
            assert got.count == _naive_path_pairs(host, 3, endpoints)
            census_checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "link oracles",
        f"{cases} pattern counts + {census_checked} length-3 censuses match, {elapsed:.0f}s",
    )


def test_criterion_09_repeat_pattern_identity():
    t0 = time.perf_counter()
    pat = repeat_pattern(2)
    orders = [10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40, 11, 21, 31, 39]
    assert len(orders) == 20
    rnd = random.Random(IDENTITY_SEED)
    for t, n in enumerate(orders):
        # the identity is exact for any valid square, so a short walk suffices
        sq = sample_uniform(n, SeededRng(IDENTITY_SEED).derive(t), burnin=10 * n * n)
        host = to_coloring(sq)
        for side in "AB":
            u = (side, rnd.randint(1, n))
            total = sum(
                count_links(host, u, (side, v), pat)
                for v in range(1, n + 1)
                if (side, v) != u
            )
            assert total + closed_alternating_walks(host, u) == n * (n - 1), (n, u)
    elapsed = time.perf_counter() - t0
    _report(9, "repeat-pattern identity", f"20 squares of orders 10..40, exact, {elapsed:.0f}s")


def test_criterion_10_correction_decomposition():
    t0 = time.perf_counter()
    verified = 0
    for t in range(500):
        inst = random_correction_instance(
            SeededRng(ABSORBER_SEED).derive(t), num_indices=20, universe_size=400, max_surplus=3
        )
        cset, stages = decompose_corrections(
            inst, SeededRng(ABSORBER_SEED).derive(10000 + t), collect_stages=True
        )
        for name, graph in stages:
            assert check_conservation(graph, inst) == [], (t, name)
        ok, violations = verify_corrections(inst, cset)
        assert ok, (t, violations[:5])
        verified += 1
    elapsed = time.perf_counter() - t0
    assert verified == 500
    _report(10, "correction decomposition", f"500 instances verified with per-stage conservation, {elapsed:.0f}s")


def test_criterion_11_connector():
    t0 = time.perf_counter()
    rng = SeededRng(CONNECTOR_SEED)
    checked = []
    for (size, roots, spread) in ((1024, 8, 10.0), (2048, 16, 10.0), (4096, 32, 10.0)):
        g = build_connector(size, roots, spread=spread, rng=rng.derive(size))
        rootset = set(g.roots)
        for lvl in g.levels:
            for v in lvl:
                assert sum(1 for w in g.adj[v] if w not in rootset) <= 4
        # tree levels match the block arithmetic exactly
        for j in range(1, g.width + 1):
            members = g.tree_vertices(j)
            frontier = {g.levels[0][j - 1]}
            seen = set(frontier)
            for i in range(g.depth + 1):
                assert sorted(frontier) == g.level_block(j, i), (size, j, i)
                nxt = {
                    w
                    for v in frontier
                    for w in g.adj[v]
                    if w in members and w not in seen
                }
                seen |= nxt
                frontier = nxt
        assert g.certified_roots >= 2
        stress = rng.derive(77000 + size)
        prefix = list(g.roots[: g.certified_roots])
        for _ in range(100):
            pool = list(prefix)
            stress.shuffle(pool)
            pairs = [(pool[2 * t], pool[2 * t + 1]) for t in range(len(pool) // 2)]
            paths = route_pairs(g, pairs)
            used: set = set()
            for path in paths:
                interior = set(path[1:-1])
                assert not interior & rootset
                assert not interior & used
                used |= interior
        checked.append((size, g.depth, g.certified_roots))
    elapsed = time.perf_counter() - t0
    _report(11, "connector", f"built+routed {checked}, {elapsed:.0f}s")


# Calibration of the frequency gates for an exactly uniform sampler, from
# numpy multinomials over the 576 order-4 squares (40 000 simulations per
# draw count): max/min < 1.5 held in 2.9% of them at 100 000 draws (median
# ratio 1.60) and in all of them at 300 000 draws (median 1.31, worst 1.48).
# The chi-square gate held in 99.993% and 99.985% of them, as alpha = 1e-4
# predicts.
FREQ_DRAWS = 300_000
# Upper 1e-4 quantile of chi-square with 575 = 576 - 1 degrees of freedom:
# the root of Q(575/2, x/2) = 1e-4 in the regularized upper incomplete gamma
# function is x = 709.7498 (Wilson-Hilferty's approximation gives 709.80).
CHI2_CRIT_575_1E4 = 709.75


def test_criterion_12_sampler_sanity():
    t0 = time.perf_counter()
    probe = subgraph_probability_probe([(1, 1, 1)], 4, 0, SeededRng(0))
    assert probe.exact is not None
    assert probe.exact.numerator == 1 and probe.exact.denominator == 4
    counts = Counter()
    for sq in sample_squares(4, SeededRng(FREQ_SEED).derive(0), FREQ_DRAWS):
        counts[sq.cells] += 1
    assert len(counts) == 576
    ratio = max(counts.values()) / min(counts.values())
    expected = FREQ_DRAWS / 576
    chi2 = sum((c - expected) ** 2 for c in counts.values()) / expected
    elapsed = time.perf_counter() - t0
    assert ratio < 1.5, ratio
    assert chi2 < CHI2_CRIT_575_1E4, chi2
    _report(
        12,
        "sampler sanity",
        f"single-edge probability exactly 1/4; {FREQ_DRAWS} draws, frequency ratio "
        f"{ratio:.3f} < 1.5, chi-square {chi2:.1f} < {CHI2_CRIT_575_1E4}, {elapsed:.0f}s",
    )
