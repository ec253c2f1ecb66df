"""latinsq benchmark: one workload, one seed, a closed loop with one caller.

    python3 perfbench/run.py --workload mc-order10 --seed 1 --seconds 24 --trace 0

The library is imported from ``src/`` next to this directory; the run fails
with exit code 2, printing no result, when it is missing.  Items run one at a
time.  A pass runs each of the workload's items once, and the run repeats
passes until ``--seconds`` have passed, or MAX_PASSES passes are done.
Item times are scaled to a reference machine speed (see ``Gauge``).  Every
item's output is checked; a wrong answer makes the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` ignores
``--seconds``: it runs the first pass twice untraced and twice traced, so
that every counter repeats exactly for a seed, and prints the per-layer
metrics and the tracing overhead.

The last line of standard output is the JSON result.  The same result, the
run's metadata and the input and output digests of the first pass go to
``perfbench/results/``, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# numpy's OpenBLAS starts a thread per core at import, which spins on the
# second core for about 0.1 s.  When another tenant holds that core, the
# import took twice as long (about 100 ms instead of 50), so setup_s moved
# by a third between sets of runs.  The library makes no BLAS calls; one
# thread keeps the run to the one caller it measures.  Set-up probes in
# fresh processes inherit the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 5  # set-ups per run, one in this process and the rest in fresh ones
TRACE_ROUNDS = 2  # untraced and traced repeats of the first pass in a traced run
# Passes a timed run makes at most.  Execution times go to arrays of this
# many passes, allocated before the first item, so that the harness's memory
# and peak_rss_mb do not grow when a faster library fits more passes into a
# run.  A pass takes 4-10 s, so a run of 24 s reaches the cap only after a
# sixfold speed-up.
MAX_PASSES = 64
M_TRIM_THRESHOLD = -1  # mallopt parameter, from glibc's malloc.h
GAUGE_EVERY = 0.05  # seconds between speed samples
# The gauge kernel's time at the reference speed: about its median sample in
# a quiet phase on the 2-vCPU x86-64 virtual machine (CPython 3.11.7) the
# benchmark was tuned on.
REFERENCE_KERNEL_S = 0.22e-3


def keep_freed_heap() -> None:
    """Keep memory that malloc frees in the process.

    By default glibc returns free memory at the top of its heap to the
    system once more than 128 KB has gathered there, and raises that
    threshold the first time it frees a large block it had mapped; whether
    and when that happens depends on the process's allocation history.  The
    corrections workload allocates and frees about 400 buffers of 64 KB per
    instance.  In 8-second runs one process paid 60 thousand minor page
    faults for them and the next a million, and items_per_s moved between
    23 and 33.  With a trim threshold of 256 MB every run keeps its heap,
    like a process in which the threshold has risen, and pays about 42
    thousand faults.  Other C libraries lack mallopt and are left alone.
    """
    try:
        ctypes.CDLL(None).mallopt(M_TRIM_THRESHOLD, 256 * 1024 * 1024)
    except (OSError, AttributeError):
        pass


def load_workload(name: str, seed: int):
    """Imports and input preparation: everything before the first item."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS.get(name)
    return None if cls is None else cls(seed)


def fresh_setup_s(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository; git is
    kept from searching the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Digest:
    def __init__(self):
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()

    def add(self, keys) -> None:
        self.inputs.update(keys[0].encode() + b"\n")
        self.outputs.update(keys[1].encode() + b"\n")

    def as_dict(self) -> dict:
        return {"inputs": self.inputs.hexdigest()[:16], "outputs": self.outputs.hexdigest()[:16]}


_GAUGE_BUFFER = list(range(64))


def _gauge_kernel() -> int:
    """Fixed pure-Python work whose time follows the machine's current speed.
    It allocates nothing: allocations between items would reshape the heap
    the library runs in, and in the corrections workload that changed the
    number of page faults, and the item times, from run to run."""
    acc = 0
    buf = _GAUGE_BUFFER
    for i in range(3000):
        acc += (i * 7) & 15
        buf[i & 63] = acc
    return acc


class Gauge:
    """Speed samples taken between items: each is the median time of three
    runs of the kernel, stamped with the time it ended.

    Other tenants of a shared host slow a run in phases of ten seconds to
    several minutes, by up to half, and the library's code and the kernel
    slow down nearly alike.  ``scale`` turns an item's time into its time at the
    reference speed, at which the kernel takes REFERENCE_KERNEL_S.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        runs = []
        for _ in range(3):
            start = perf_counter()
            _gauge_kernel()
            runs.append(perf_counter() - start)
        self.samples.append((perf_counter(), statistics.median(runs)))

    def sample_if_due(self) -> None:
        if perf_counter() - self.samples[-1][0] >= GAUGE_EVERY:
            self.sample()

    def scale(self):
        """A function of the index of the last sample before an execution:
        REFERENCE_KERNEL_S over the mean of that sample and the next one,
        the first after the execution (samples are taken between items)."""
        speeds = [c for _, c in self.samples]

        def factor(before: int) -> float:
            return 2 * REFERENCE_KERNEL_S / (speeds[before] + speeds[before + 1])

        return factor


def scaled(seconds: float) -> float:
    """A time just measured, at the reference speed, from one gauge sample
    taken right after it."""
    gauge = Gauge()
    gauge.sample()
    return seconds * REFERENCE_KERNEL_S / gauge.samples[0][1]


class Outcome:
    """Item executions and verdicts of a run.

    The execution of item slot i in pass p is at index p * items + i of
    ``seconds`` (its time) and ``sample`` (the index of the last gauge
    sample before it).  The arrays hold MAX_PASSES passes and are filled
    with zeros when the first pass starts, so their memory is resident from
    then on and does not change with the number of passes.
    """

    def __init__(self):
        self.slots: dict = {}  # item -> slot, in the order of the first pass
        self.items = 0
        self.seconds = array("d")
        self.sample = array("I")
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def start_pass(self, items: int) -> None:
        if self.passes == 0:
            self.items = items
            self.seconds = array("d", [0.0]) * (items * MAX_PASSES)
            self.sample = array("I", [0]) * (items * MAX_PASSES)
        elif items != self.items:
            raise ValueError(f"pass {self.passes} has {items} items, the first had {self.items}")

    def record(self, spec, seconds: float, sample: int) -> None:
        k = self.passes * self.items + self.slots.setdefault(spec, len(self.slots))
        self.seconds[k] = seconds
        self.sample[k] = sample

    def item_times(self, scale=None) -> list[float]:
        """Each item's median time over its repeats, sorted.  With ``scale``,
        every execution's time is first multiplied by scale(sample)."""
        times = []
        for slot in range(self.items):
            ks = range(slot, self.passes * self.items, self.items)
            times.append(statistics.median(
                self.seconds[k] * (scale(self.sample[k]) if scale else 1.0) for k in ks
            ))
        return sorted(times)

    def rate(self, scale=None) -> float:
        times = self.item_times(scale)
        return len(times) / sum(times)


def run_pass(wl, p: int, tr, outcome: Outcome, digest: Digest | None,
             after_item=None, gauge: Gauge | None = None):
    """One pass of the closed loop; checks and speed samples happen outside
    the item timing."""
    from workloads import WrongAnswer

    items = wl.pass_items(p)
    outcome.start_pass(len(items))
    for spec in items:
        tr.begin_item(outcome.attempted)
        start = perf_counter()
        out = wl.run(spec, tr)
        end = perf_counter()
        tr.end_item()
        outcome.record(spec, end - start, len(gauge.samples) - 1 if gauge else 0)
        outcome.attempted += 1
        try:
            outcome.failed += wl.check(spec, out)
            if after_item is not None:
                after_item(spec, out)
            if digest is not None:
                digest.add(wl.keys(spec, out))
        except WrongAnswer as exc:
            outcome.failed += 1
            outcome.wrong.append(str(exc))
        if gauge is not None:
            gauge.sample_if_due()
    try:
        wl.end_pass()
    except WrongAnswer as exc:
        outcome.wrong.append(f"pass {p}: {exc}")
    outcome.passes += 1


def timed_run(wl, seconds: float, digest: Digest) -> tuple[Outcome, Gauge, float]:
    """The closed loop, and the peak resident memory in MB read at its end,
    before the item times are aggregated."""
    from tracing import Forward

    outcome = Outcome()
    gauge = Gauge()
    gauge.sample()
    start = perf_counter()
    while outcome.passes == 0 or (perf_counter() - start < seconds and outcome.passes < MAX_PASSES):
        run_pass(wl, outcome.passes, Forward, outcome,
                 digest if outcome.passes == 0 else None, gauge=gauge)
    gauge.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outcome, gauge, peak_rss_mb


def end_to_end(outcome: Outcome, gauge: Gauge, setups: list[float],
               peak_rss_mb: float) -> tuple[dict, list[str]]:
    """Item metrics from speed-scaled times (see ``Gauge``): an item's time
    is the median over its repeats."""
    times = outcome.item_times(gauge.scale())
    n = len(times)
    rank = n - 10 if n > 10 else n  # the highest rank with ten items beyond it
    raw = outcome.item_times()
    speed = statistics.median(c for _, c in gauge.samples) / REFERENCE_KERNEL_S
    metrics = {
        "items_per_s": (n / sum(times), "1/s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "item_tail_ms": (1000 * times[rank - 1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "items_per_s": f"{n} items x {outcome.passes} passes; unscaled {n / sum(raw):.6g}, "
        f"median kernel time {speed:.3g}x the reference",
        "item_p50_ms": f"unscaled {1000 * statistics.median(raw):.6g}",
        "item_tail_ms": f"p{100 * rank / n:.4g}, {n - rank} items beyond it",
        "setup_s": f"median of {len(setups)} set-ups, each scaled",
    }
    lines = [
        f"{name:<14}{value:>14.6g} {unit:<4} {notes.get(name, '')}".rstrip()
        for name, (value, unit) in metrics.items()
    ]
    lines.insert(3, f"{'failed_frac':<14}{outcome.failed / outcome.attempted:>14.6g}      "
                    f"{outcome.failed} of {outcome.attempted} items")
    return metrics, lines


def traced_run(wl, digest: Digest) -> tuple[Outcome, dict, "object"]:
    """The first pass, alternately untraced and traced, TRACE_ROUNDS times
    each; every pass is checked.  The per-layer metrics cover the traced
    passes, and the overhead compares items' unscaled times in the two modes.
    """
    from tracing import Forward, Tracer
    from workloads import Tally

    tracer = Tracer()
    counts: Counter = Counter()
    tally = Tally()
    plain = Outcome()
    traced = Outcome()

    def after_item(spec, out):
        wl.measure(spec, out, tracer, counts, tally)

    for k in range(TRACE_ROUNDS):
        run_pass(wl, 0, Forward, plain, digest if k == 0 else None)
        run_pass(wl, 0, tracer, traced, None, after_item)
    traced.wrong[:0] = plain.wrong
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    layer = per_layer(tracer, counts, tally, plain.rate(), traced.rate())
    return traced, layer, tracer


def per_layer(tracer, counts: Counter, tally, untraced_rate: float, traced_rate: float) -> dict:
    spans = tracer.self_times()

    def busy(name):
        return spans.get(name, (0.0, 0))[0]

    def calls(name):
        return spans.get(name, (0.0, 0))[1]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    decompose_s = busy("transversal.decompose")
    enumerate_s = busy("transversal.enumerate")
    search_s = decompose_s - enumerate_s
    walk_s = busy("sampler.walk")
    visits = counts["sampler.visits"]
    s, c = "s", "count"
    return {
        "transversal.search_s": (search_s, s),
        "transversal.nodes": (counts["transversal.nodes"], c),
        "transversal.us_per_node": (ratio(search_s, counts["transversal.nodes"], 1e6), "us"),
        "transversal.enumerate_s": (enumerate_s, s),
        "transversal.candidates": (counts["transversal.candidates"], c),
        "transversal.count_s": (busy("transversal.count"), s),
        "transversal.partial_s": (busy("transversal.partial"), s),
        "transversal.decompose_s": (decompose_s, s),
        "transversal.verify_s": (busy("transversal.verify"), s),
        "transversal.undecided": (counts["transversal.undecided"], c),
        "sampler.walk_s": (walk_s, s),
        "sampler.visits": (visits, c),
        "sampler.us_per_visit": (ratio(walk_s, visits, 1e6), "us"),
        "sampler.rng_draws": (tally.draws, c),
        "sampler.draws_per_visit": (ratio(counts["sampler.walk_draws"], visits), "draws/visit"),
        "sampler.shuffle_s": (tally.shuffle_s, s),
        "sampler.shuffle_calls": (tally.shuffle_calls, c),
        "sampler.enumerate_s": (busy("sampler.enumerate"), s),
        "links.count_links_s": (busy("links.count_links"), s),
        "links.count_links_calls": (calls("links.count_links"), c),
        "links.embeddings": (counts["links.embeddings"], c),
        "links.walks_s": (busy("links.walks"), s),
        "links.census_s": (busy("links.census"), s),
        "links.census_pairs": (counts["links.census_pairs"], c),
        "absorber.instance_s": (busy("absorber.instance"), s),
        "absorber.decompose_s": (busy("absorber.decompose"), s),
        "absorber.conservation_s": (busy("absorber.conservation"), s),
        "absorber.conservation_calls": (calls("absorber.conservation"), c),
        "absorber.verify_s": (busy("absorber.verify"), s),
        "absorber.pairs": (counts["absorber.pairs"], c),
        "absorber.infeasible": (counts["absorber.infeasible"], c),
        "trace.items_per_s": (traced_rate, "1/s"),
        "trace.untraced_items_per_s": (untraced_rate, "1/s"),
        "trace.overhead_pct": (100 * (untraced_rate / traced_rate - 1), "%"),
        "trace.item_self_s": (busy("item"), s),
        "trace.spans": (len(tracer.spans), c),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latinsq" / "__init__.py").is_file():
        print(f"error: no latinsq sources under {SRC}", file=sys.stderr)
        return 2
    keep_freed_heap()
    start = perf_counter()
    wl = load_workload(args.workload, args.seed)
    setup_s = scaled(perf_counter() - start)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_s)
        return 0
    import latinsq

    if Path(latinsq.__file__).resolve().parent != SRC / "latinsq":
        print(f"error: latinsq was imported from {latinsq.__file__}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    meta = metadata()
    digest = Digest()
    tracer = None
    if args.trace:
        outcome, layer, tracer = traced_run(wl, digest)
        metrics, lines = layer, [f"{k:<30}{v:>16.6g} {u}" for k, (v, u) in layer.items()]
    else:
        setups = [setup_s] + [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
        outcome, gauge, peak_rss_mb = timed_run(wl, args.seconds, digest)
        metrics, lines = end_to_end(outcome, gauge, setups, peak_rss_mb)
    meta["loadavg_start"] = load_start
    meta["loadavg_end"] = os.getloadavg()

    attempted = outcome.attempted
    result = {
        "correct": not outcome.wrong,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} items, "
        f"inputs {digest.as_dict()['inputs']}, outputs {digest.as_dict()['outputs']}, "
        f"load {meta['loadavg_start'][0]:.2f} -> {meta['loadavg_end'][0]:.2f}"
    )
    for line in lines:
        print("  " + line)
    for message in outcome.wrong[:10]:
        print(f"WRONG: {message}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "digest": digest.as_dict(),
        "wrong": outcome.wrong,
        "report": lines,
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
