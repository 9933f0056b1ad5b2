"""The ``switchflow`` command.

Subcommands: gen, simulate, decide, reduce, verify-flow, complete,
walk, solve, check.  Every command reads its graph from ``--input``
(default stdin), writes to ``--output`` (default stdout), and is
deterministic given inputs and flags; JSON outputs are byte-identical
across runs.

Exit codes: 0 on success (or a valid verdict), 1 when the input is
content-invalid or a property is falsified, 2 on usage errors,
including missing or unreadable files.

Each command imports the layers it runs when it runs, so ``decide``
loads no flow, search, suite or generator code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import TYPE_CHECKING, ContextManager, Sequence, TextIO

from .graphs import MODELS, SolverError, SwitchGraph, _dumps, parse, serialize

if TYPE_CHECKING:
    from .suite import CheckReport


class _UsageError(Exception):
    """Flag-level misuse discovered after argparse; exits with code 2."""


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _read_text(path: str | None) -> str:
    if path is None:
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _output(args: argparse.Namespace) -> ContextManager[TextIO]:
    if args.output is None:
        return contextlib.nullcontext(sys.stdout)
    return open(args.output, "w", encoding="utf-8")


def _write_output(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with _output(args) as out:
        out.write(text)


def _load_graph(args: argparse.Namespace) -> SwitchGraph:
    return parse(_read_text(args.input))


def _load_flow(args: argparse.Namespace) -> tuple[int, int, tuple[int, ...]]:
    from .flows import parse_flow

    return parse_flow(_read_text(args.flow))


def cmd_gen(args: argparse.Namespace) -> int:
    from .generate import GeneratorSpec, generate

    try:
        spec = GeneratorSpec(n=args.n, seed=args.seed, model=args.model)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    _write_output(args, serialize(generate(spec)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import format_trace, outcome_to_doc, replay, run

    g = _load_graph(args)
    outcome = run(g, budget=args.budget)
    with _output(args) as out:
        if args.trace:
            for line in format_trace(replay(g, outcome.steps)):
                out.write(line + "\n")
        out.write(_dumps(outcome_to_doc(outcome)) + "\n")
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    from .simulate import decide_arrival

    g = _load_graph(args)
    terminates = decide_arrival(g)
    if args.json:
        _write_output(args, _dumps({"terminates": terminates}))
    else:
        _write_output(args, "terminates" if terminates else "does-not-terminate")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    from .reduction import augment, sidecar_doc

    aug = augment(_load_graph(args))
    _write_output(args, serialize(aug.h) + "\n" + _dumps(sidecar_doc(aug)))
    return 0


def cmd_verify_flow(args: argparse.Namespace) -> int:
    from .flows import TERMINATION, parse_certificate, report_doc, verify

    g = _load_graph(args)
    origin, dest, counts, kind = parse_certificate(_read_text(args.flow))
    if kind is not None and (kind == TERMINATION) != (dest == g.dest):
        ends = "ends" if kind == TERMINATION else "does not end"
        raise ValueError(
            f"$.kind: a {kind} flow {ends} at the board's destination {g.dest}, found dest {dest}"
        )
    report = verify(g, origin, dest, counts)
    _write_output(args, _dumps(report_doc(report)))
    return 0 if report.valid else 1


def cmd_complete(args: argparse.Namespace) -> int:
    from .flows import complete, serialize_flow
    from .reduction import augment

    g = _load_graph(args)
    aug = augment(g)
    origin, dest, counts = _load_flow(args)
    if origin != aug.o_bar:
        raise ValueError(
            f"flow origin must be the fresh origin {aug.o_bar}, found {origin}"
        )
    completion = complete(aug, dest, counts)
    _write_output(args, serialize_flow(aug.o_bar, completion.reached, completion.flow))
    return 0


def cmd_walk(args: argparse.Namespace) -> int:
    from .local_search import (
        LocalOptInstance,
        hex_decode,
        state_doc,
        walk_localopt,
        walk_trace,
    )
    from .reduction import augment

    g = _load_graph(args)
    inst = LocalOptInstance(augment(g))
    if args.start == "reset":
        start = inst.reset
    else:
        try:
            start = hex_decode(inst, args.start)
        except ValueError as e:
            raise _UsageError(f"--start: {e}") from None
    result = walk_localopt(inst, start, budget=args.budget)
    doc = state_doc(inst, result.solution)
    doc["steps"] = result.steps
    with _output(args) as out:
        if args.trace:
            for step, state in enumerate(walk_trace(inst, start, result.steps)):
                out.write(_dumps({"step": step, **state}) + "\n")
        out.write(_dumps(doc) + "\n")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from .local_search import certificate_doc, solve_s_arrival

    cert = solve_s_arrival(_load_graph(args))
    _write_output(args, _dumps(certificate_doc(cert)))
    return 0


def _format_check_report(report: CheckReport) -> str:
    from .suite import FAMILIES

    lines = [f"instances: {report.instances}"]
    lines += [f"{family}: {report.passed[family]} passed" for family in FAMILIES]
    if report.failure is None:
        lines.append("result: ok")
    else:
        f = report.failure
        lines.append(f"result: FALSIFIED ({f.family})")
        lines.append(f"  reproduce: --n {f.spec.n} --seed {f.spec.seed} --model {f.spec.model}")
        lines.append(f"  graph: {f.graph_json}")
        lines.append(f"  detail: {f.detail}")
    return "\n".join(lines)


def cmd_check(args: argparse.Namespace) -> int:
    from .suite import run_checks, self_test

    if args.n_max < 2:
        raise _UsageError(f"--n-max must be at least 2, got {args.n_max}")
    if args.count < 1:
        raise _UsageError(f"--count must be positive, got {args.count}")
    if args.self_test:
        surfaced = self_test(args.seed)
        _write_output(
            args,
            "self-test: corruption surfaced"
            if surfaced
            else "self-test: corruption went undetected",
        )
        return 0 if surfaced else 1
    report = run_checks(args.n_max, args.count, args.seed)
    if args.json:
        _write_output(args, _dumps(report.to_doc()))
    else:
        _write_output(args, _format_check_report(report))
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing keeps
    no state in it, since each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="switchflow",
        description="Switch-graph runs, switching-flow certificates, "
        "and the local-search solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    common.set_defaults(input=None)

    withinput = argparse.ArgumentParser(add_help=False, parents=[common])
    withinput.add_argument(
        "--input", metavar="PATH", help="graph JSON file (default: stdin)"
    )

    withflow = argparse.ArgumentParser(add_help=False, parents=[withinput])
    withflow.add_argument(
        "--flow", metavar="PATH", required=True, help="flow JSON file"
    )

    p = sub.add_parser("gen", parents=[common], help="generate a seeded random graph")
    p.add_argument("--n", type=int, required=True, help="vertex count (>= 2)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument("--model", choices=MODELS, default="uniform")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "simulate", parents=[withinput], help="run the token and report the outcome"
    )
    p.add_argument("--budget", type=_budget, default=None, help="step cap")
    p.add_argument("--trace", action="store_true", help="emit one line per step")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "decide", parents=[withinput], help="decide whether the run terminates"
    )
    p.add_argument("--json", action="store_true", help="print a JSON document")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser(
        "reduce",
        parents=[withinput],
        help="emit the augmented board plus its sidecar record",
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "verify-flow",
        parents=[withflow],
        help="check the switching-flow conditions and a certificate's kind; exit 0 iff valid",
    )
    p.set_defaults(func=cmd_verify_flow)

    p = sub.add_parser(
        "complete",
        parents=[withflow],
        help="extend a partial flow on the augmented board into a certificate",
    )
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser(
        "walk", parents=[withinput], help="walk the local-search instance"
    )
    p.add_argument(
        "--start",
        default="reset",
        help='"reset" or a hex-encoded state (default: reset)',
    )
    p.add_argument(
        "--budget", type=_budget, default=None, help="neighbor-application cap"
    )
    p.add_argument("--trace", action="store_true", help="emit every visited state")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser(
        "solve", parents=[withinput], help="produce a termination/non-termination certificate"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "check", parents=[common], help="run the end-to-end property suite"
    )
    p.add_argument("--n-max", type=int, default=8, help="largest instance size")
    p.add_argument("--count", type=int, default=200, help="number of instances")
    p.add_argument("--seed", type=int, default=7, help="suite master seed")
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.add_argument(
        "--self-test",
        action="store_true",
        help="corrupt the verifier on purpose and confirm the suite notices",
    )
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The consumer closed the pipe (say, `... | head`).  Park stdout
        # on devnull so the interpreter's exit flush stays quiet too.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    except OSError as e:
        print(f"cannot read or write file: {e}", file=sys.stderr)
        return 2
    except (SolverError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
