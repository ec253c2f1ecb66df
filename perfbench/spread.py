"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload corrections --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload corrections --seeds 11 12 13 \
        --against perfbench/results/spread-corrections-s1-5.json

For each metric it prints the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.  With
``--against`` it also prints how far each median moved from an earlier set,
in the direction that counts as worse.  The runs are made one after another
and their values are saved to
``perfbench/results/spread-<workload>-s<first seed>-<last seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--against", type=Path, help="the file of an earlier set")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in metrics}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)

    earlier = json.loads(args.against.read_text())["values"] if args.against else None
    print(f"{'metric':<14}{'median':>12}{'spread':>9}{'bound':>7}" + ("   worse" if earlier else ""))
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        line = f"{name:<14}{median:>12.6g}{(q3 - q1) / median:>9.3f}{metrics[name]['bound']:>7}"
        if earlier:
            before = statistics.median(earlier[name])
            sign = 1 if metrics[name]["better"] == "lower" else -1
            line += f"{sign * (median - before) / before:>8.3f}"
        print(line)
    out = HERE / "results" / f"spread-{args.workload}-s{args.seeds[0]}-{args.seeds[-1]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                               "seconds": seconds, "values": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
