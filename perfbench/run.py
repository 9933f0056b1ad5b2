"""Benchmark for switchflow: one workload per run, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload deep-chain --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout.  A run sets up
(a fresh import of ``switchflow`` plus the workload's inputs), then runs
whole rounds of the workload until ``--seconds`` have passed, checking
every output; ``SETUP_REPEATS - 1`` more set-ups are spread over the
run and ``setup_s`` is the median of all.

Times are scaled to the host's full speed by a reference timed between
operations (``workloads.reference_work``), since a shared host runs the
same code at changing speeds.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced rounds and prints its
per-layer metrics, with tracing overhead, and writes the kept spans to
``perfbench/out/``.  The next-to-last line of standard output is a JSON
record of the run (seed, host, Python version, ``nproc``, the metrics
with their units, every other figure measured); the last line is the
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from workloads import WORKLOADS, RoundStats, at_full_speed, time_reference  # noqa: E402

LAYERS = ("graphs", "generate", "simulate", "reduction", "flows", "local_search", "suite", "cli")
SETUP_REPEATS = 7
CHILD_TIMES = {"cli.import_ms", "cli.roundtrip_ms"} | {
    f"cli.{c}.process_ms" for c in ("gen", "decide", "reduce", "solve", "verify-flow")
}


def import_switchflow():
    """A fresh import of the package and its layer modules."""
    for name in [k for k in sys.modules if k == "switchflow" or k.startswith("switchflow.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{layer: importlib.import_module(f"switchflow.{layer}") for layer in LAYERS}
    )


def setup(workload, seed: int):
    """One set-up: a fresh import of the package and the workload's
    inputs.  Returns the modules, the inputs and the time taken, scaled
    to the host's full speed by the reference loop timed just before
    and just after."""
    before = time_reference()
    start = time.perf_counter()
    sf = import_switchflow()
    inputs = workload.setup(sf, random.Random(seed))
    elapsed = time.perf_counter() - start
    return sf, inputs, at_full_speed(elapsed, (before + time_reference()) / 2)


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-roundtrip" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def run_untraced(workload, seed: int, seconds: float, run: RoundStats, setup_times: list):
    """Rounds for ``seconds``, on the modules and inputs of the first
    set-up.  The other set-ups are spread over the run, so that their
    median sees the same changes in machine speed as the rounds; their
    modules and inputs are dropped."""
    sf, inputs, first = setup(workload, seed)
    setup_times.append(first)
    workload.prepare(sf, inputs)
    del inputs
    gc.collect()
    start = time.perf_counter()
    while not run.rounds or time.perf_counter() - start < seconds:
        stats = RoundStats()
        workload.round(sf, run.rounds, stats)
        stats.calibrate()
        run.merge(stats)
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
            setup_times.append(setup(workload, seed)[2])


def layer_figures(tracer, setup_totals, traced_rounds: int) -> dict[str, float]:
    """Per traced name: the traced set-up plus the mean traced round."""
    out = {}
    rounds = tracer.totals()
    for name, per_round in rounds.items():
        base = setup_totals.get(name, {})
        for key, value in per_round.items():
            out[f"{name}.{key}"] = base.get(key, 0) + value / traced_rounds
    sim_steps, sim_s = out.get("simulate.simulate.steps", 0), out.get("simulate.simulate.self_s", 0)
    out["simulate.steps_per_s"] = sim_steps / sim_s if sim_s else 0.0
    calls, self_s = out.get("flows.verify.calls", 0), out.get("flows.verify.self_s", 0)
    out["flows.verify.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
    walk_steps = out.get("local_search.walk_localopt.steps", 0)
    walk_s = out.get("local_search.walk_localopt.total_s", 0)
    out["local_search.walk_steps_per_s"] = walk_steps / walk_s if walk_s else 0.0
    out["local_search.verify_calls_per_walk_step"] = (
        tracer.verify_in_walk / traced_rounds / walk_steps if walk_steps else 0.0
    )
    return out


def run_traced(workload, seed: int, seconds: float, run: RoundStats, trace_path: Path):
    """Traced set-up, then untraced and traced rounds in turn."""
    from tracer import Tracer

    sf = import_switchflow()
    tracer = Tracer()
    layers = {layer: getattr(sf, layer) for layer in LAYERS}
    tracer.install(layers)
    try:
        inputs = workload.setup(sf, random.Random(seed))
    finally:
        tracer.uninstall()
    setup_totals = tracer.totals()
    tracer.clear_totals()
    workload.prepare(sf, inputs)
    gc.collect()

    walls = {False: [], True: []}
    plain = RoundStats()  # the untraced rounds
    children: dict[str, list[float]] = {}  # child-process times of every round
    spans_before = tracer.span_count
    start = time.perf_counter()
    index = 0
    while not walls[True] or time.perf_counter() - start < seconds:
        # each round's inputs run once untraced, then once traced
        traced = index % 2 == 1
        stats = RoundStats()
        if traced:
            tracer.install(layers)
        t0 = time.perf_counter()
        try:
            workload.round(sf, index // 2, stats, inprocess=True)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - t0)
        stats.calibrate()
        run.merge(stats)
        if not traced:
            plain.merge(stats)
        # child processes are not traced, so every round's times count
        for name in CHILD_TIMES & stats.samples.keys():
            children.setdefault(name, []).extend(stats.samples[name])
        index += 1

    traced_rounds = len(walls[True])
    figures = layer_figures(tracer, setup_totals, traced_rounds)
    plain_figures = plain.figures()
    figures.update({k: v for k, v in plain_figures.items() if k.startswith("cli.")})
    figures.update({k: median(v) for k, v in children.items()})
    figures["simulate.run_steps_per_s"] = plain_figures.get("run_steps_per_s", 0.0)
    figures["suite.check_instances_per_s"] = plain_figures.get("check_instances_per_s", 0.0)
    figures["local_search.states_scored_per_s"] = plain_figures.get("states_scored_per_s", 0.0)
    untraced_wall = median(walls[False])
    overhead = median(walls[True]) - untraced_wall
    figures["trace.overhead_s"] = overhead
    figures["trace.overhead_share"] = overhead / untraced_wall
    figures["trace.spans"] = (tracer.span_count - spans_before) / traced_rounds
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    return figures


def result_metrics(declared: list[dict], figures: dict[str, float], fill_missing: bool):
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in figures and not fill_missing:
            raise KeyError(f"workload measured no {name}")
        metrics[name] = {"value": figures.get(name, 0.0), "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "switchflow" / "__init__.py").is_file():
        print(f"error: no switchflow package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](ROOT, workdir)
    run = RoundStats()
    setup_times: list[float] = []
    correct = True
    try:
        if args.trace:
            figures = run_traced(
                workload, args.seed, args.seconds, run,
                out_dir / f"trace-{args.workload}-{args.seed}.jsonl",
            )
            metrics = result_metrics(declared["per_layer"], figures, fill_missing=True)
        else:
            run_untraced(workload, args.seed, args.seconds, run, setup_times)
            figures = run.figures()
            figures["setup_s"] = median(setup_times)
            figures["peak_rss_mb"] = peak_rss_mb(args.workload)
            metrics = result_metrics(declared["end_to_end"], figures, fill_missing=False)
    except checker.CheckFailed:
        traceback.print_exc()
        correct = False
        figures, metrics = {}, {}
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "rounds": run.rounds,
        "setup_times_s": setup_times,
        "metrics": metrics,
        "figures": figures,
    }
    print(json.dumps(record))
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
