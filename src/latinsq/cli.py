"""Batch experiment harness.

Subcommands: sample, count-transversals, decompose, verify, tarry-check,
mc-decomposable, census-links, probe-subgraph, absorber-demo,
connector-demo.  All randomness flows from --seed through per-trial derived
streams, so identical invocations produce identical report bodies
(timing fields aside) regardless of --workers.

Each subcommand returns its answer and exit code, and `main` alone writes
the answer: to the --out file, or to stdout.  A report's elapsed_seconds
spans the whole command, and tarry-check's offending square goes to
stderr after the answer.

Exit codes: 0 success, 1 invalid input (usage errors included), 2 infeasible
or undecided-dominated, 3 assertion failure (a reproduction claim was
violated, or an answer failed its own check, as `decompose`'s can).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import __version__
from .absorber import (
    CorrectionInstance,
    InfeasibleError,
    RoutingError,
    build_connector,
    decompose_corrections,
    random_correction_instance,
    random_maximal_pairing,
    route_pairs,
    verify_corrections,
)
from .core import (
    ValidationError,
    cyclic_square,
    decomposition_to_grid_text,
    decomposition_from_grid_text,
    square_from_text,
    square_to_text,
    to_coloring,
)
from .links import census_path_pairs, count_links, repeat_pattern, subgraph_probability_probe
from .sampler import REDUCED_LIMIT, SeededRng, enumerate_reduced, sample_squares, sample_uniform
from .transversal import DEFAULT_NODE_BUDGET, count_transversals, decompose, verify_decomposition

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_ASSERTION = 3


@dataclass
class ExperimentReport:
    command: str
    params: dict
    seed: int | None
    trials: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    note: str = ""  # written to stderr after the body; not part of the report

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "artifact_version": __version__,
                "command": self.command,
                "params": self.params,
                "seed": self.seed,
                "trials": self.trials,
                "summary": self.summary,
                "elapsed_seconds": self.elapsed_seconds,
            },
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [f"{self.command}: {json.dumps(self.params, sort_keys=True)}"]
        for key in sorted(self.summary):
            lines.append(f"  {key} = {self.summary[key]}")
        return "\n".join(lines) + "\n"


def _write(body: str, out: str | None) -> None:
    """body to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _read_square(path: str):
    with open(path) as fh:
        return square_from_text(fh.read())


# --- mc-decomposable ----------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson's score interval for a binomial proportion (Wilson, JASA 22,
    1927), 95% at the default z.  Unlike the normal approximation it does not
    shrink to a point when every trial agrees."""
    p = successes / trials
    scale = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / scale
    half = z / scale * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


def _mc_trial(task) -> dict:
    seed, n, trial, budget = task
    rng = SeededRng(seed).derive(trial)
    square = sample_uniform(n, rng)
    # decompose verifies its own "some" and raises AssertionError otherwise
    res = decompose(square, node_budget=budget)
    return {"trial": trial, "status": res.status, "nodes": res.nodes}


def cmd_mc_decomposable(args) -> tuple[ExperimentReport, int]:
    if args.trials < 1:
        raise ValueError(f"trials must be positive, got {args.trials}")
    if args.workers < 1:
        raise ValueError(f"workers must be positive, got {args.workers}")
    tasks = [(args.seed, args.order, t, args.node_budget) for t in range(args.trials)]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            records = list(pool.map(_mc_trial, tasks))
    else:
        records = [_mc_trial(t) for t in tasks]
    some = sum(1 for r in records if r["status"] == "some")
    none = sum(1 for r in records if r["status"] == "none")
    undecided = sum(1 for r in records if r["status"] == "undecided")
    # undecided trials are left out of the fraction, never counted as "none"
    decided = some + none
    interval = [round(x, 6) for x in wilson_interval(some, decided)] if decided else None
    report = ExperimentReport(
        command="mc-decomposable",
        params={"order": args.order, "trials": args.trials, "node_budget": args.node_budget},
        seed=args.seed,
        trials=records,
        summary={
            "some": some,
            "none": none,
            "undecided": undecided,
            "fraction_resolvable": some / decided if decided else None,
            "ci95_wilson": interval,
        },
    )
    if undecided > some + none:
        return report, EXIT_INFEASIBLE
    return report, EXIT_OK


# --- tarry-check --------------------------------------------------------------


def cmd_tarry_check(args) -> tuple[ExperimentReport, int]:
    n = args.order
    examined = 0
    resolvable = 0
    undecided = 0
    offender = None
    transversal_histogram: dict[int, int] = {}
    if not 1 <= n <= REDUCED_LIMIT:
        raise ValueError(f"order must be in 1..{REDUCED_LIMIT}, got {n}")
    if not 0 <= args.cyclic_prefix_rows <= n:
        raise ValueError(f"cyclic prefix rows must be in 0..{n}, got {args.cyclic_prefix_rows}")
    prefix = None
    if args.cyclic_prefix_rows:
        prefix = [list(cyclic_square(n).row(r)) for r in range(1, args.cyclic_prefix_rows + 1)]
    for square in enumerate_reduced(n, row_prefix=prefix):
        examined += 1
        # counted first, so that decompose can answer from the square's record
        tc = count_transversals(square)
        res = decompose(square, node_budget=args.node_budget)
        transversal_histogram[tc] = transversal_histogram.get(tc, 0) + 1
        if res.status == "some":
            resolvable += 1
            offender = offender or square
        elif res.status == "undecided":
            undecided += 1
            offender = offender or square
    report = ExperimentReport(
        command="tarry-check",
        params={"order": n, "cyclic_prefix_rows": args.cyclic_prefix_rows, "node_budget": args.node_budget},
        seed=None,
        summary={
            "examined": examined,
            "resolvable": resolvable,
            "undecided": undecided,
            "transversal_counts": {str(k): v for k, v in sorted(transversal_histogram.items())},
        },
    )
    if resolvable or undecided:
        report.note = "offending square:\n" + square_to_text(offender)
        return report, EXIT_ASSERTION
    return report, EXIT_OK


# --- census-links -------------------------------------------------------------


def _distinct_pair(rng: SeededRng, n: int) -> tuple[int, int]:
    """Two different values of 1..n: the second is redrawn until it differs."""
    a = rng.randint(n) + 1
    while True:
        b = rng.randint(n) + 1
        if b != a:
            return a, b


def cmd_census_links(args) -> tuple[ExperimentReport | str, int]:
    if args.order < 2:
        raise ValueError(f"order must be at least 2 to pick distinct endpoints, got {args.order}")
    if args.pairs < 0:
        raise ValueError(f"pairs must be non-negative, got {args.pairs}")
    if args.length is None:
        pattern = repeat_pattern(args.k)
    elif args.length < 1:
        raise ValueError(f"path length must be positive, got {args.length}")
    elif args.length % 2 == 0:
        raise ValueError(f"path length must be odd, got {args.length}")
    rng = SeededRng(args.seed)
    square = sample_uniform(args.order, rng.derive(0), burnin=args.burnin)
    host = to_coloring(square)
    pick = rng.derive(1)
    n = args.order
    rows = ["n,param,u,v,count,seconds"]
    records = []
    counts = []
    for _ in range(args.pairs):
        if args.length is None:
            side = "A" if pick.randint(2) == 0 else "B"
            a, b = _distinct_pair(pick, n)
            u, v = (side, a), (side, b)
            ts = time.perf_counter()
            count = count_links(host, u, v, pattern)
            dt = time.perf_counter() - ts
            param = f"k={args.k}"
            urep, vrep = f"{u[0]}{u[1]}", f"{v[0]}{v[1]}"
        else:
            x1, x2 = _distinct_pair(pick, n)
            y1, y2 = _distinct_pair(pick, n)
            ts = time.perf_counter()
            res = census_path_pairs(
                host, args.length, (("A", x1), ("B", y1), ("A", x2), ("B", y2))
            )
            dt = time.perf_counter() - ts
            count = res.count
            param = f"len={args.length}"
            urep, vrep = f"A{x1}:B{y1}", f"A{x2}:B{y2}"
        counts.append(count)
        rows.append(f"{n},{param},{urep},{vrep},{count},{dt:.6f}")
        records.append({"param": param, "u": urep, "v": vrep, "count": count})
    summary = {
        "mean": statistics.fmean(counts) if counts else 0.0,
        # pvariance keeps the type of its data: an int 0 for equal int counts
        "variance": float(statistics.pvariance(counts)) if len(counts) > 1 else 0.0,
        "min": min(counts, default=0),
        "max": max(counts, default=0),
    }
    report = ExperimentReport(
        command="census-links",
        # only the parameter of the mode that ran: --k is unused with --length
        params={
            "order": args.order,
            **({"k": args.k} if args.length is None else {"length": args.length}),
            "pairs": args.pairs,
        },
        seed=args.seed,
        trials=records,
        summary=summary,
    )
    return ("\n".join(rows) + "\n" if args.format == "csv" else report), EXIT_OK


# --- probe-subgraph -----------------------------------------------------------


def _read_probe_edges(path: str) -> list[tuple[int, int, int]]:
    with open(path) as fh:
        data = json.load(fh)
    edges = data.get("edges") if isinstance(data, dict) else None
    if not isinstance(edges, list):
        raise ValueError("graph file must hold an object with an `edges` list")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 3 and all(type(x) is int for x in e)):
            raise ValueError(f"edge {e!r} is not a [row, column, colour] list of integers")
    return [tuple(e) for e in edges]


def cmd_probe_subgraph(args) -> tuple[ExperimentReport, int]:
    if args.trials < 1:
        raise ValueError(f"trials must be positive, got {args.trials}")
    edges = _read_probe_edges(args.graph)
    rng = SeededRng(args.seed)
    result = subgraph_probability_probe(edges, args.order, args.trials, rng.derive(0))
    summary = {
        "estimate": result.estimate,
        "stderr": result.stderr,
        "hits": result.hits,
        "trials": result.trials,
    }
    params = {"order": args.order, "edges": [list(e) for e in edges]}
    if result.exact is None:
        params["trials"] = args.trials
    else:
        # the exact probe enumerates every square and draws no trials
        summary["exact"] = f"{result.exact.numerator}/{result.exact.denominator}"
    report = ExperimentReport(
        command="probe-subgraph",
        params=params,
        seed=args.seed,
        summary=summary,
    )
    return report, EXIT_OK


# --- absorber-demo ------------------------------------------------------------


def cmd_absorber_demo(args) -> tuple[ExperimentReport, int]:
    rng = SeededRng(args.seed)
    records = []
    artifacts = []
    failures = 0
    if args.count < 0:
        raise ValueError(f"count must be non-negative, got {args.count}")
    if args.instance:
        with open(args.instance) as fh:
            instances = [CorrectionInstance.from_json(fh.read())]
        params = {"instance": args.instance}
    else:
        # the random-instance flags apply only where instances are drawn
        params = {"indices": args.indices, "universe": args.universe, "max_surplus": args.max_surplus}
        instances = [
            random_correction_instance(
                rng.derive(t),
                num_indices=args.indices,
                universe_size=args.universe,
                max_surplus=args.max_surplus,
            )
            for t in range(args.count)
        ]
    for t, inst in enumerate(instances):
        try:
            cset = decompose_corrections(inst, rng.derive(10_000 + t))
        except InfeasibleError as exc:
            records.append({"instance": t, "status": "infeasible", "stage": exc.stage})
            failures += 1
            continue
        ok, violations = verify_corrections(inst, cset)
        records.append({"instance": t, "status": "ok" if ok else "invalid", "pairs": len(cset.pairs)})
        if not ok:
            records[-1]["violations"] = [list(v) for v in violations[:10]]
            failures += 1
        artifacts.append({"instance": json.loads(inst.to_json()), "pairs": json.loads(cset.to_json())})
    report = ExperimentReport(
        command="absorber-demo",
        params={"count": len(instances), **params},
        seed=args.seed,
        trials=records,
        summary={
            "verified": sum(1 for r in records if r["status"] == "ok"),
            "failed": failures,
        },
    )
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(artifacts, fh, sort_keys=True)
    if failures:
        invalid = any(r["status"] == "invalid" for r in records)
        return report, EXIT_ASSERTION if invalid else EXIT_INFEASIBLE
    return report, EXIT_OK


# --- connector-demo -----------------------------------------------------------


def cmd_connector_demo(args) -> tuple[ExperimentReport, int]:
    if args.pairings < 0:
        raise ValueError(f"pairings must be non-negative, got {args.pairings}")
    rng = SeededRng(args.seed)
    graph = build_connector(args.size, args.roots, spread=args.spread, rng=rng.derive(0))
    stress = rng.derive(1)
    routed = 0
    failed = 0
    prefix = list(graph.roots[: graph.certified_roots])
    for _ in range(args.pairings):
        try:
            route_pairs(graph, random_maximal_pairing(prefix, stress))
            routed += 1
        except RoutingError:
            failed += 1
    max_deg = max(len(v) for v in graph.adj.values()) if graph.adj else 0
    report = ExperimentReport(
        command="connector-demo",
        params={"size": args.size, "roots": args.roots, "spread": args.spread},
        seed=args.seed,
        summary={
            "depth": graph.depth,
            "level_width": graph.width,
            "certified_roots": graph.certified_roots,
            "stress_pairings_ok": routed,
            "stress_pairings_failed": failed,
            "max_degree": max_deg,
        },
    )
    return report, EXIT_OK if failed == 0 else EXIT_INFEASIBLE


# --- plain square commands ------------------------------------------------------


def cmd_sample(args) -> tuple[str, int]:
    rng = SeededRng(args.seed)
    blocks = []
    for square in sample_squares(
        args.order, rng.derive(0), args.count, burnin=args.burnin, thin=args.thin
    ):
        blocks.append(square_to_text(square))
    return "\n".join(blocks), EXIT_OK


def cmd_count_transversals(args) -> tuple[str, int]:
    square = _read_square(args.square)
    return f"{count_transversals(square)}\n", EXIT_OK


def cmd_decompose(args) -> tuple[str, int]:
    square = _read_square(args.square)
    res = decompose(square, node_budget=args.node_budget)
    if res.status == "some":
        body = decomposition_to_grid_text(square, res.decomposition)
    else:
        body = res.status + "\n"
    return body, EXIT_INFEASIBLE if res.status == "undecided" else EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    square = _read_square(args.square)
    with open(args.parts) as fh:
        decomposition = decomposition_from_grid_text(fh.read())
    ok, msg = verify_decomposition(square, decomposition)
    return ("ok" if ok else f"invalid: {msg}") + "\n", EXIT_OK if ok else EXIT_ASSERTION


# --- wiring -------------------------------------------------------------------

# The --format values each command writes.  The plain square commands write
# squares, counts and verdicts as text only; the reports write text or JSON,
# and census-links also writes CSV rows.
FORMATS = {
    "sample": ("text",),
    "count-transversals": ("text",),
    "decompose": ("text",),
    "verify": ("text",),
    "tarry-check": ("text", "json"),
    "mc-decomposable": ("text", "json"),
    "census-links": ("text", "json", "csv"),
    "probe-subgraph": ("text", "json"),
    "absorber-demo": ("text", "json"),
    "connector-demo": ("text", "json"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_INVALID rather
    than argparse's 2, which here means infeasible or undecided.  Its
    subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latinsq", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    parser.add_argument("--out", default=None, help="write output to this file")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    parser.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample random squares to the square text format")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("count-transversals", help="count transversals of a square file")
    p.add_argument("square")
    p.set_defaults(func=cmd_count_transversals)

    p = sub.add_parser("decompose", help="decompose a square file into transversals")
    p.add_argument("square")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="verify a decomposition grid against a square")
    p.add_argument("square")
    p.add_argument("parts", help="decomposition in the orthogonal-mate grid format")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tarry-check", help="exhaustive resolvability scan of reduced squares")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--cyclic-prefix-rows", type=int, default=0,
                   help="restrict to squares whose leading rows match the cyclic square")
    p.set_defaults(func=cmd_tarry_check)

    p = sub.add_parser("mc-decomposable", help="Monte-Carlo resolvability of random squares")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_mc_decomposable)

    p = sub.add_parser("census-links", help="repeat-pattern or path-pair censuses")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--k", type=int, default=2, help="repeat-pattern parameter")
    p.add_argument("--length", type=int, default=None,
                   help="census same-coloured path pairs of this odd length instead")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--burnin", type=int, default=None)
    p.set_defaults(func=cmd_census_links)

    p = sub.add_parser("probe-subgraph", help="containment probability of a coloured subgraph")
    p.add_argument("graph", help="JSON file with an `edges` list of [row, column, colour]")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=cmd_probe_subgraph)

    p = sub.add_parser("absorber-demo", help="correction decomposition round trips")
    p.add_argument("--instance", default=None, help="JSON instance file")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--indices", type=int, default=20)
    p.add_argument("--universe", type=int, default=400)
    p.add_argument("--max-surplus", type=int, default=3)
    p.add_argument("--dump", default=None, help="write instance/answer artifacts to this JSON file")
    p.set_defaults(func=cmd_absorber_demo)

    p = sub.add_parser("connector-demo", help="build, certify and stress a connector graph")
    p.add_argument("--size", type=int, default=4096)
    p.add_argument("--roots", type=int, default=16)
    p.add_argument("--spread", type=float, default=10.0)
    p.add_argument("--pairings", type=int, default=100)
    p.set_defaults(func=cmd_connector_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format not in FORMATS[args.command]:
        sys.stderr.write(
            f"error: --format {args.format} is not for {args.command},"
            f" which writes {' or '.join(FORMATS[args.command])}\n"
        )
        return EXIT_INVALID
    t0 = time.perf_counter()
    try:
        body, code = args.func(args)
        note = ""
        if isinstance(body, ExperimentReport):
            body.elapsed_seconds = time.perf_counter() - t0
            note = body.note
            body = body.to_json() + "\n" if args.format == "json" else body.to_text()
        _write(body, args.out)
    except (ValidationError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except AssertionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ASSERTION
    sys.stderr.write(note)
    return code


if __name__ == "__main__":
    sys.exit(main())
