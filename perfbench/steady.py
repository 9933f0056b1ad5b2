"""Steadiness check: run each workload repeatedly and report, for every
end-to-end metric, its spread against the bound in ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload random-mix ...]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...) and
the run length of ``BENCHMARK.json``.  The spread of a metric is the
distance between the first and third quartiles of its values, as
``statistics.quantiles(values, n=4)`` gives them, divided by their
median.  A metric is ``steady`` when its spread is below a third of its
bound and ``within`` when it is below the bound; ``setup_s`` is only
reported.  The share of failed operations must be the same in every run.
Prints a table to standard error and one JSON line per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    all_ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            results.append(one_run(workload, args.first_seed + i, bench["run_seconds"]))
            print(f"{workload}: run {i + 1}/{args.runs} done", file=sys.stderr)
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        rows = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3, s = spread(values)
            if m["name"] == "setup_s":
                verdict = "reported"
            elif s < m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within"
            else:
                verdict = "unsteady"
            all_ok &= verdict != "unsteady"
            rows[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": s, "bound": m["bound"], "verdict": verdict, "values": values,
            }
            print(
                f"  {m['name']:<14} median {med:>14.6g} {m['unit']:<6} spread {s:7.4f}"
                f"  bound {m['bound']:.2f}  {verdict}",
                file=sys.stderr,
            )
        all_ok &= same_share and all(r["correct"] for r in results)
        print(
            f"  failed/attempted: {sorted(shares)} same share: {same_share}",
            file=sys.stderr,
        )
        print(json.dumps({
            "workload": workload, "runs": args.runs, "first_seed": args.first_seed,
            "correct": all(r["correct"] for r in results),
            "failed_share_same": same_share, "metrics": rows,
        }))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
