"""The benchmark's four workloads.

Each workload turns the benchmark seed into a fixed list of items.  A pass
runs every item once, and a run repeats passes until its time is up, so
every item runs the same number of times (see ``run.py`` for why).

``run`` makes the library calls of one item through ``tr.call`` (see
``tracing``) and returns their outputs.  ``check`` raises ``WrongAnswer``
on a wrong output and returns True for an item that failed without being
wrong (``undecided``, infeasible).  ``measure`` runs only in the traced run,
after the item's span has closed: it takes the counters that need a second
pass or a wrapped RNG, so that they do not inflate the item's busy times.
``keys`` gives the strings that go into the input and output digests.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from time import perf_counter

from latinsq import absorber
from latinsq.absorber import (
    InfeasibleError,
    check_conservation,
    decompose_corrections,
    verify_corrections,
)
from latinsq.core import to_coloring
from latinsq.links import census_path_pairs, closed_alternating_walks, count_links, repeat_pattern
from latinsq.sampler import SeededRng, enumerate_reduced, sample_uniform
from latinsq.transversal import (
    count_transversals,
    decompose,
    iter_transversals,
    max_partial_transversal,
    verify_decomposition,
)

try:
    random_correction_instance = absorber.random_correction_instance
except AttributeError:
    from latinsq.cli import random_correction_instance


class WrongAnswer(Exception):
    """An output the benchmark's checks reject."""


class Tally:
    __slots__ = ("draws", "shuffle_calls", "shuffle_s")

    def __init__(self):
        self.draws = 0
        self.shuffle_calls = 0
        self.shuffle_s = 0.0


class CountingRng(SeededRng):
    """The same (seed, stream) as a SeededRng, counting draws and timing
    shuffles; streams derived from it count into the same tally."""

    def __init__(self, seed: int, stream: int, tally: Tally):
        super().__init__(seed, stream)
        self.tally = tally

    @classmethod
    def like(cls, rng: SeededRng, tally: Tally) -> "CountingRng":
        return cls(rng.seed, rng.stream, tally)

    def derive(self, stream: int) -> "CountingRng":
        return CountingRng.like(super().derive(stream), self.tally)

    def randint(self, k: int) -> int:
        self.tally.draws += 1
        return super().randint(k)

    def random(self) -> float:
        self.tally.draws += 1
        return super().random()

    def shuffle(self, items: list) -> None:
        self.tally.shuffle_calls += 1
        start = perf_counter()
        super().shuffle(items)
        self.tally.shuffle_s += perf_counter() - start


def _replay_walk(n: int, rng: SeededRng, burnin: int, square, tally: Tally) -> None:
    """Sample again with a counting RNG on the same stream; the square must
    come out the same, or the counts would describe another walk."""
    again = sample_uniform(n, CountingRng.like(rng, tally), burnin=burnin)
    if again != square:
        raise WrongAnswer(f"order-{n} sample differs when replayed on the same stream")


def _candidates(square) -> int:
    return len(list(iter_transversals(square)))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def end_pass(self) -> None:
        """Checks that need a whole pass."""


# --- mc-order10 ---------------------------------------------------------------

MC_ORDER = 10
MC_BURNIN = 10 * MC_ORDER**3  # sample_uniform's default burn-in
# A run has time for about a dozen order-10 trials, and search cost varies
# tenfold from square to square.  Squares drawn fresh from each seed would
# make throughput differ between seeds by about 20% from the inputs alone, so
# the squares are a fixed panel: the first MC_PANEL trials of the acceptance
# Monte Carlo (master seed 777).  The panel is small so that a run repeats
# each trial about three times; the seed orders each pass.
MC_PANEL_SEED = 777
MC_PANEL = 4


class McOrder10(Workload):
    name = "mc-order10"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seen: dict[int, tuple] = {}

    def pass_items(self, p: int):
        trials = list(range(MC_PANEL))
        random.Random(self.seed * 1_000_003 + p).shuffle(trials)
        return trials

    def run(self, trial, tr):
        square = tr.call(
            "sampler.walk", sample_uniform, MC_ORDER, SeededRng(MC_PANEL_SEED).derive(trial),
            burnin=MC_BURNIN,
        )
        res = tr.call("transversal.decompose", decompose, square)
        verdict = None
        if res.status == "some":
            verdict = tr.call("transversal.verify", verify_decomposition, square, res.decomposition)
        return square, res, verdict

    def check(self, trial, out) -> bool:
        square, res, verdict = out
        if res.status == "some" and not verdict[0]:
            raise WrongAnswer(f"trial {trial}: decomposition fails verification: {verdict[1]}")
        first = self.seen.setdefault(trial, (square, res.status, res.nodes))
        if first != (square, res.status, res.nodes):
            raise WrongAnswer(f"trial {trial}: a repeat gave another square, status or node count")
        return res.status == "undecided"

    def measure(self, trial, out, tr, counts: Counter, tally: Tally) -> None:
        square, res, _ = out
        counts["transversal.candidates"] += tr.call("transversal.enumerate", _candidates, square)
        counts["transversal.nodes"] += res.nodes
        counts["transversal.undecided"] += res.status == "undecided"
        before = tally.draws
        _replay_walk(MC_ORDER, SeededRng(MC_PANEL_SEED).derive(trial), MC_BURNIN, square, tally)
        counts["sampler.walk_draws"] += tally.draws - before
        counts["sampler.visits"] += MC_BURNIN

    def keys(self, trial, out):
        square, res, _ = out
        return f"{trial}:{square.cells}", f"{res.status}:{res.nodes}"


# --- tarry-order6 ------------------------------------------------------------

TARRY_ORDER = 6
TARRY_SQUARES = 9408
# Transversal counts over all reduced order-6 squares, as the library
# computed them when this benchmark was written.
TARRY_HISTOGRAM = {0: 2100, 8: 7020, 24: 108, 32: 180}


def _is_partial_transversal(square, cells) -> bool:
    n = square.n
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    if len(rows) != len(cells) or len(cols) != len(cells):
        return False
    if not all(1 <= r <= n and 1 <= c <= n for r, c in cells):
        return False
    return len({square.symbol(r, c) for r, c in cells}) == len(cells)


class TarryOrder6(Workload):
    """Deterministic: every pass is the full reduced order-6 scan."""

    name = "tarry-order6"

    def pass_items(self, p: int):
        self.gen = enumerate_reduced(TARRY_ORDER)
        self.histogram: Counter = Counter()
        return range(TARRY_SQUARES)

    def run(self, i, tr):
        square = tr.call("sampler.enumerate", next, self.gen, None)
        if square is None:
            return None
        count = tr.call("transversal.count", count_transversals, square)
        res = tr.call("transversal.decompose", decompose, square)
        partial = tr.call("transversal.partial", max_partial_transversal, square)
        return square, count, res, partial

    def check(self, i, out) -> bool:
        if out is None:
            raise WrongAnswer(f"enumeration ended after {i} squares, expected {TARRY_SQUARES}")
        square, count, res, partial = out
        if res.status == "some":
            raise WrongAnswer(f"square {i}: an order-6 square decomposed")
        size = len(partial.cells)
        if not _is_partial_transversal(square, partial.cells) or size < TARRY_ORDER - 1:
            raise WrongAnswer(f"square {i}: bad maximum partial transversal of size {size}")
        if (size == TARRY_ORDER) != (count > 0):
            raise WrongAnswer(f"square {i}: partial size {size} contradicts {count} transversals")
        self.histogram[count] += 1
        return res.status == "undecided"

    def end_pass(self) -> None:
        if next(self.gen, None) is not None:
            raise WrongAnswer(f"enumeration gave more than {TARRY_SQUARES} squares")
        if dict(self.histogram) != TARRY_HISTOGRAM:
            raise WrongAnswer(f"transversal-count histogram {dict(self.histogram)}")

    def measure(self, i, out, tr, counts: Counter, tally: Tally) -> None:
        square, count, res, _ = out
        candidates = tr.call("transversal.enumerate", _candidates, square)
        if candidates != count:
            raise WrongAnswer(f"square {i}: {candidates} enumerated but {count} counted")
        counts["transversal.candidates"] += candidates
        counts["transversal.nodes"] += res.nodes
        counts["transversal.undecided"] += res.status == "undecided"

    def keys(self, i, out):
        square, count, res, partial = out
        return f"{square.cells}", f"{count}:{res.status}:{res.nodes}:{len(partial.cells)}"


# --- links-census ------------------------------------------------------------

# Sampling at order 38 alone takes about 4 s; stopping at 31 keeps a pass
# near 4 s, so that a run repeats each item about six times.
LINK_ORDERS = (10, 17, 24, 31)
RP3_ENDPOINTS = 4  # repeat_pattern(3) counts per item, checked by forced walks
CENSUS_LENGTH = 5
CENSUS_LIMIT = 100  # a full length-5 census at order 31 would take minutes
_P2 = repeat_pattern(2)
_P3 = repeat_pattern(3)


def _lookups(square):
    """col_of[r][s] is the column of symbol s in row r; row_of[c][s] the row
    of symbol s in column c."""
    n = square.n
    col_of = [[0] * (n + 1) for _ in range(n + 1)]
    row_of = [[0] * (n + 1) for _ in range(n + 1)]
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            s = square.symbol(r, c)
            col_of[r][s] = c
            row_of[c][s] = r
    return col_of, row_of


def _repeat3_ends(square, r0: int) -> Counter:
    """Oracle for repeat_pattern(3) from row vertex r0: for each ordered
    triple of distinct colours (a, b, c) the walk coloured a,b,c,a,b,c is
    forced; it is an embedding exactly when its seven vertices differ.
    Returns the number of embeddings by end row."""
    n = square.n
    col_of, row_of = _lookups(square)
    ends: Counter = Counter()
    colours = range(1, n + 1)
    for a in colours:
        for b in colours:
            if b == a:
                continue
            for c in colours:
                if c == a or c == b:
                    continue
                r, rows, cols = r0, {r0}, set()
                for x, y in ((a, b), (c, a), (b, c)):
                    col = col_of[r][x]
                    if col in cols:
                        break
                    cols.add(col)
                    r = row_of[col][y]
                    if r in rows:
                        break
                    rows.add(r)
                else:
                    ends[r] += 1
    return ends


def _census_pairs(square, ends, limit: int) -> int:
    """Oracle for census_path_pairs of length CENSUS_LENGTH, stopping at
    ``limit``.  It enumerates P1 by its colour sequence rather than by its
    vertices: the first CENSUS_LENGTH - 1 colours fix the walk from x1, the
    last is the colour of the edge into y1.  A pair counts when P1 is a
    path and the walk from x2 with the same colours is a path disjoint from
    P1 that ends at y2.  At order 10 a census has about 90 pairs, below the
    limit, so there the whole count is checked."""
    col_of, row_of = _lookups(square)
    (_, x1), (_, y1), (_, x2), (_, y2) = ends

    def walk(r, colours):
        rows, cols = [r], []
        for i, colour in enumerate(colours):
            if i % 2 == 0:
                cols.append(col_of[r][colour])
            else:
                r = row_of[cols[-1]][colour]
                rows.append(r)
        return rows, cols

    def is_path(rows, cols):
        return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)

    count = 0
    for head in product(range(1, square.n + 1), repeat=CENSUS_LENGTH - 1):
        rows1, cols1 = walk(x1, head)
        cols1.append(y1)
        if not is_path(rows1, cols1):
            continue
        rows2, cols2 = walk(x2, head + (square.symbol(rows1[-1], y1),))
        if cols2[-1] == y2 and is_path(rows2 + rows1, cols2 + cols1):
            count += 1
            if count == limit:
                break
    return count


class LinksCensus(Workload):
    name = "links-census"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.items = []
        for stream, n in enumerate(LINK_ORDERS):
            pick = random.Random(seed * 1_000_003 + stream)
            u2 = (pick.randint(1, n), pick.randint(1, n))
            u3 = pick.randint(1, n)
            v3 = tuple(pick.sample([v for v in range(1, n + 1) if v != u3], RP3_ENDPOINTS))
            x1, x2 = pick.sample(range(1, n + 1), 2)
            y1, y2 = pick.sample(range(1, n + 1), 2)
            ends = (("A", x1), ("B", y1), ("A", x2), ("B", y2))
            self.items.append((n, stream, u2, u3, v3, ends))

    def pass_items(self, p: int):
        return self.items

    def run(self, spec, tr):
        n, stream, u2, u3, v3, ends = spec
        square = tr.call(
            "sampler.walk", sample_uniform, n, SeededRng(self.seed).derive(stream), burnin=10 * n * n
        )
        host = to_coloring(square)
        sweeps = []
        for side, a in zip("AB", u2):
            u = (side, a)
            counts = [
                tr.call("links.count_links", count_links, host, u, (side, v), _P2)
                for v in range(1, n + 1)
                if v != a
            ]
            closed = tr.call("links.walks", closed_alternating_walks, host, u)
            sweeps.append((sum(counts), closed))
        rp3 = [
            tr.call("links.count_links", count_links, host, ("A", u3), ("A", v), _P3) for v in v3
        ]
        census = tr.call(
            "links.census", census_path_pairs, host, CENSUS_LENGTH, ends, limit=CENSUS_LIMIT
        )
        return square, sweeps, rp3, census

    def check(self, spec, out) -> bool:
        n, _stream, _u2, u3, v3, ends = spec
        square, sweeps, rp3, census = out
        for total, closed in sweeps:
            if total + closed != n * (n - 1):
                raise WrongAnswer(f"order {n}: {total} + {closed} != n(n-1) = {n * (n - 1)}")
        oracle = _repeat3_ends(square, u3)
        want = [oracle[v] for v in v3]
        if rp3 != want:
            raise WrongAnswer(f"order {n}: repeat_pattern(3) counts {rp3}, forced walks give {want}")
        want = _census_pairs(square, ends, CENSUS_LIMIT)
        if census.count != want or census.saturated:
            raise WrongAnswer(f"order {n}: census count {census.count}, the oracle gives {want}")
        return False

    def measure(self, spec, out, tr, counts: Counter, tally: Tally) -> None:
        n, stream, *_ = spec
        square, sweeps, rp3, census = out
        counts["links.embeddings"] += sum(total for total, _ in sweeps) + sum(rp3)
        counts["links.census_pairs"] += census.count
        before = tally.draws
        _replay_walk(n, SeededRng(self.seed).derive(stream), 10 * n * n, square, tally)
        counts["sampler.walk_draws"] += tally.draws - before
        counts["sampler.visits"] += 10 * n * n

    def keys(self, spec, out):
        square, sweeps, rp3, census = out
        return f"{spec}:{square.cells}", f"{sweeps}:{rp3}:{census.count}"


# --- corrections -------------------------------------------------------------

CORRECTION_PASS = 100  # instances; a pass takes about 5 s
CORRECTION_SHAPE = {"num_indices": 20, "universe_size": 400, "max_surplus": 3}


class Corrections(Workload):
    name = "corrections"

    def _rngs(self, t: int):
        root = SeededRng(self.seed)
        return root.derive(0).derive(t), root.derive(1).derive(t)

    def pass_items(self, p: int):
        return range(CORRECTION_PASS)

    def run(self, t, tr):
        inst_rng, dec_rng = self._rngs(t)
        inst = tr.call("absorber.instance", random_correction_instance, inst_rng, **CORRECTION_SHAPE)
        try:
            cset, stages = tr.call(
                "absorber.decompose", decompose_corrections, inst, dec_rng, collect_stages=True
            )
        except InfeasibleError:
            return inst, None, None, None
        bad = [
            (name, tr.call("absorber.conservation", check_conservation, graph, inst))
            for name, graph in stages
        ]
        verdict = tr.call("absorber.verify", verify_corrections, inst, cset)
        return inst, cset, bad, verdict

    def check(self, t, out) -> bool:
        _inst, cset, bad, verdict = out
        if cset is None:
            return True
        for name, violations in bad:
            if violations:
                raise WrongAnswer(f"instance {t}: stage {name} breaks conservation: {violations[:3]}")
        if not verdict[0]:
            raise WrongAnswer(f"instance {t}: corrections fail verification: {verdict[1][:3]}")
        return False

    def measure(self, t, out, tr, counts: Counter, tally: Tally) -> None:
        inst, cset, bad, _ = out
        inst_rng, dec_rng = self._rngs(t)
        again = random_correction_instance(CountingRng.like(inst_rng, tally), **CORRECTION_SHAPE)
        if again.to_json() != inst.to_json():
            raise WrongAnswer(f"instance {t} differs when replayed on the same stream")
        if cset is None:
            counts["absorber.infeasible"] += 1
            return
        replay, _ = decompose_corrections(
            inst, CountingRng.like(dec_rng, tally), collect_stages=True
        )
        if replay.pairs != cset.pairs:
            raise WrongAnswer(f"instance {t}: decomposition differs when replayed")
        counts["absorber.pairs"] += len(cset.pairs)

    def keys(self, t, out):
        inst, cset, bad, _ = out
        if cset is None:
            return inst.to_json(), "infeasible"
        return inst.to_json(), f"{len(cset.pairs)}:{cset.to_json()}:{len(bad)}"


WORKLOADS = {w.name: w for w in (McOrder10, TarryOrder6, LinksCensus, Corrections)}
