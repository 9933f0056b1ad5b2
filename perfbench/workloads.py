"""The three workloads: inputs from a seed, rounds of timed operations,
and checks of every output against ``checker``.

A workload is a closed loop with one caller: each operation starts after
the previous one ends.  A round is a fixed list of operations, the same
in every round of a run, so the share of failed operations is the same
in every run whatever the seed or the run length.  Only program calls
are timed; building expectations and checking outputs is not.

Operations that hit one of the two known faults are counted as failed
and left out of the rates.  Both faults come from the cycle-detection
threshold of 20 vertices in ``switchflow.simulate``:

1. ``decide_arrival`` raises ``ValueError`` for graphs above 20 vertices;
2. ``suite.run_checks(n_max=20, ...)`` reports an ``internal`` failure at
   its first 19-vertex instance, whose augmented board has 21 vertices.

Any other exception propagates and aborts the run.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import checker
from checker import Board, require

FAULT_MESSAGE = "exceeds the cycle-detection threshold"


def is_threshold_fault(exc: BaseException) -> bool:
    return isinstance(exc, ValueError) and FAULT_MESSAGE in str(exc)


# The host's speed: a fixed piece of the checker's own graph code, timed
# between operations.  On a shared host the processor runs the same code
# up to 2.6 times slower for seconds or minutes at a time (other tenants
# on the same core), and a 40-second run can fall wholly in such a spell.
# Timed next to each other, an operation and this reference slow down
# nearly together, so their ratio stays put; times are reported as that
# ratio times REFERENCE_S, the reference's fastest time on the reference
# host (Python 3.11, 2 vCPUs): seconds at the host's full speed.
REFERENCE_CHAIN = checker.counter_chain(9)
REFERENCE_AUGMENTED = checker.augment(checker.bouncer_chain(12)).board
REFERENCE_S = 0.27e-3
REFERENCE_EVERY_S = 0.02  # at most this long between reference timings


def reference_work() -> None:
    """Runs on the two reference boards, an augmentation and a flow
    check: a mix of the list, tuple, set and call work the program does."""
    chain, aug = REFERENCE_CHAIN, REFERENCE_AUGMENTED
    checker.reference_run(chain, (chain.dest,))
    checker.augment(checker.bouncer_chain(12))
    checker.flow_violations(aug, 0, 1, [1] * (2 * aug.n))
    checker.reference_run(aug, (aug.dest, aug.n - 1))


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def at_full_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference took ``reference`` seconds,
    scaled to the host's full speed."""
    return seconds / reference * REFERENCE_S


class RoundStats:
    """What one or more rounds did.

    A round is a fixed list of operations, the same in every round, so
    an operation is known by its position in the round.  ``record``
    notes one operation of the round being run; ``calibrate`` times the
    reference, at least every ``REFERENCE_EVERY_S`` while a round
    runs; ``merge`` files a finished round's operations under their
    positions, each scaled by the median reference time of its round.
    Also kept: attempted and failed operation counts, rounds, and
    per-round samples of child-process times."""

    def __init__(self):
        self.ops: list[tuple[str, int, float, bool]] = []  # kind, units, seconds, ok
        self.references: list[float] = []
        self.last_reference = float("-inf")
        # kind, units, ok, then scaled and wall seconds of every round
        self.places: list[tuple[str, int, bool, list[float], list[float]]] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.samples: dict[str, list[float]] = defaultdict(list)

    def calibrate(self, due_only: bool = False) -> None:
        if due_only and time.perf_counter() - self.last_reference < REFERENCE_EVERY_S:
            return
        self.references.append(time_reference())
        self.last_reference = time.perf_counter()

    def record(self, kind: str, units: int, seconds: float, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += not ok
        self.ops.append((kind, units, seconds, ok))

    def timed(self, kind, fn, *args, units: int = 1):
        """Call ``fn(*args)`` as one operation.  Returns the result, or
        ``None`` when it raised the threshold fault (counted as failed)."""
        self.calibrate(due_only=True)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except ValueError as e:
            if not is_threshold_fault(e):
                raise
            self.record(kind, 0, time.perf_counter() - start, ok=False)
            return None
        self.record(kind, units, time.perf_counter() - start)
        return result

    def merge(self, other: "RoundStats") -> None:
        if not self.places:
            self.places = [(kind, units, ok, [], []) for kind, units, _, ok in other.ops]
        require(len(other.ops) == len(self.places), f"round {self.rounds} differs in length")
        reference = statistics.median(other.references)
        for place, (kind, units, seconds, ok) in zip(self.places, other.ops):
            require(place[:3] == (kind, units, ok), f"round {self.rounds} differs at {place}")
            place[3].append(at_full_speed(seconds, reference))
            place[4].append(seconds)
        self.references += other.references
        self.attempted += other.attempted
        self.failed += other.failed
        self.rounds += 1
        for name, values in other.samples.items():
            self.samples[name] += values

    def figures(self) -> dict[str, float]:
        """An operation's time is the median of its scaled times: it is
        the same call on the same inputs in every round.  ``<kind>_per_s``
        divides the units of work of a kind by the times of the
        operations that did them (a failed operation did none, except a
        suite batch stopped part way); ``round_ms`` sums the times of a
        round's operations, failed ones included.  The same from the
        unscaled medians as ``wall.<name>``; the median reference time as
        ``reference_ms``; and the median of every sample."""
        out = {}
        for prefix, column in (("", 3), ("wall.", 4)):
            units: dict[str, int] = defaultdict(int)
            secs: dict[str, float] = defaultdict(float)
            round_s = 0.0
            for place in self.places:
                kind, n, t = place[0], place[1], statistics.median(place[column])
                round_s += t
                if n:
                    units[kind] += n
                    secs[kind] += t
            out.update({f"{prefix}{kind}_per_s": units[kind] / secs[kind] for kind in units})
            out[f"{prefix}round_ms"] = round_s * 1e3
        out["reference_ms"] = statistics.median(self.references) * 1e3
        out.update({name: statistics.median(v) for name, v in self.samples.items()})
        return out


def as_board(g) -> Board:
    return Board(g.n, tuple(g.even), tuple(g.odd), g.origin, g.dest)


def to_graph(sf, board: Board):
    return sf.graphs.graph(board.n, board.even, board.odd, board.origin, board.dest)


def check_cert(aug: checker.Augmented, cert, self_test: bool) -> None:
    checker.check_certificate(aug, cert.kind, cert.origin, cert.dest, cert.flow)
    if self_test:
        checker.self_test(aug, cert.origin, cert.dest, cert.flow)


def kind_of(terminates: bool) -> str:
    return "termination" if terminates else "non-termination"


class Workload:
    """Base of the workloads: ``setup`` builds the inputs (timed as set-up),
    ``prepare`` computes what the checks compare against (not timed),
    ``round`` runs one round of operations and checks their outputs."""

    name = ""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir


# -- deep-chain --------------------------------------------------------------


class DeepChain(Workload):
    """Long runs on three deterministic families.  The seed relabels the
    vertices, which leaves every run length and certificate size as is.

    Sizes keep each timed operation to a few milliseconds (about 8,000
    run steps, 500 to 900 walk steps), so that a round takes about 40 ms
    at full speed and every operation is timed 300 to 450 times in a
    40-second run.  The visited-state dict of a deeper run shows in
    ``peak_rss_mb``: ``prepare`` decides the counter chain of
    ``MEMORY_N`` vertices once, untimed."""

    name = "deep-chain"
    # (family, closed-form verdict, size for run and decide, size for solve)
    FAMILIES = (
        ("counter", True, 13, 9),
        ("trap", False, 15, 11),
        ("bouncer", True, 91, 30),
    )
    MEMORY_N = 17  # 2**17 visited states
    # A verify call takes microseconds, after a walk that evicted its
    # data from the caches.  Repeated back to back, nine calls in ten
    # find their data cached, so the rate times the code more than how
    # much of the cache other tenants took.
    VERIFY_REPEATS = 10
    FAMILY_BOARDS = {
        "counter": checker.counter_chain,
        "trap": checker.trap_chain,
        "bouncer": checker.bouncer_chain,
    }

    def setup(self, sf, rng):
        cases = []
        for family, terminates, run_n, solve_n in self.FAMILIES:
            boards = {}
            for n in sorted({run_n, solve_n}):
                perm = list(range(n))
                rng.shuffle(perm)
                board = checker.relabel(self.FAMILY_BOARDS[family](n), perm)
                boards[n] = (board, to_graph(sf, board), perm)
            cases.append((family, terminates, boards[run_n], boards[solve_n]))
        return cases

    def prepare(self, sf, cases):
        deep = to_graph(sf, checker.counter_chain(self.MEMORY_N))
        require(sf.simulate.decide_arrival(deep) is True, "decide on the deep counter chain")
        self.cases = []
        for family, terminates, (rb, rg, rperm), (sb, sg, _) in cases:
            aug = checker.augment(sb)
            self.cases.append(
                {
                    "family": family,
                    "terminates": terminates,
                    "run_board": rb,
                    "run_graph": rg,
                    "perm": rperm,
                    "solve_graph": sg,
                    "aug": aug,
                    "aug_graph": to_graph(sf, aug.board),
                    "cert_sum": self.cert_sum(family, sb.n),
                    "run_steps": self.run_steps(family, rb.n),
                }
            )

    @staticmethod
    def run_steps(family: str, n: int) -> int:
        """Closed-form steps of ``run``: to the destination, or to the
        second visit of the first repeated state."""
        if family == "counter":
            return checker.counter_steps(n)
        if family == "bouncer":
            return checker.bouncer_steps(n)
        return checker.trap_witness(n)[3]

    @staticmethod
    def cert_sum(family: str, n: int) -> int:
        """Closed-form size of the certificate: one step from the fresh
        origin plus the augmented run to its terminal."""
        if family == "counter":
            return 1 + checker.counter_steps(n)
        if family == "bouncer":
            return 1 + checker.bouncer_steps(n)
        # the trap is rewired to d_bar: enter it, then one more step
        return 1 + (2 ** (n - 2) - 2) + 2

    def check_run(self, case, outcome) -> None:
        family, board = case["family"], case["run_board"]
        require(outcome.steps == case["run_steps"], f"{family}: {outcome.steps} steps")
        if case["terminates"]:
            require(outcome.verdict.value == "terminated", f"{family}: {outcome.verdict}")
            require(
                checker.flow_valid(board, board.origin, board.dest, outcome.profile),
                f"{family}: run profile is not a switching flow",
            )
        else:
            trap, top, first, second = checker.trap_witness(board.n)
            perm = case["perm"]
            w = outcome.cycle_witness
            require(outcome.verdict.value == "non-terminating", f"{family}: {outcome.verdict}")
            require(
                w is not None
                and (w.vertex, w.switches, w.first_step, w.second_step)
                == (perm[trap], 1 << perm[top], first, second),
                f"{family}: cycle witness {w}",
            )

    def round(self, sf, index, stats: RoundStats, inprocess: bool = False) -> None:
        for case in self.cases:
            family = case["family"]
            outcome = stats.timed(
                "run_steps", sf.simulate.run, case["run_graph"], units=case["run_steps"]
            )
            self.check_run(case, outcome)
            verdict = stats.timed("decide", sf.simulate.decide_arrival, case["run_graph"])
            if verdict is not None:
                require(verdict == case["terminates"], f"{family}: decide said {verdict}")
            cert = stats.timed("solve", sf.local_search.solve_s_arrival, case["solve_graph"])
            check_cert(case["aug"], cert, self_test=index == 0)
            require(cert.kind == kind_of(case["terminates"]), f"{family}: {cert.kind} certificate")
            require(sum(cert.flow) == case["cert_sum"], f"{family}: certificate size {sum(cert.flow)}")
            flows = [(case["aug_graph"], cert.origin, cert.dest, cert.flow)]
            if case["terminates"]:
                g = case["run_graph"]
                flows.append((g, g.origin, g.dest, outcome.profile))
            for args in flows * self.VERIFY_REPEATS:
                report = stats.timed("verify", sf.flows.verify, *args)
                require(report.valid, f"{family}: verify rejected a certificate or run profile")


# -- random-mix --------------------------------------------------------------


class RandomMix(Workload):
    """Many small seeded graphs, suite batches and state scoring.

    Only graphs whose source run and augmented run both end (at a
    terminal or a repeated state) within ``STEP_CAP`` steps are kept.
    Run lengths of random graphs are heavy-tailed; without the cap one
    graph in a thousand takes longer than the other 999 together, and
    the rates vary more from seed to seed than any bound could allow.
    Long runs are the deep-chain workload's subject.

    Every round runs all the inputs.  They are few enough for a round to
    take about a sixth of a second at full speed, so that every
    operation is timed 60 to 90 times in a 40-second run.
    """

    name = "random-mix"
    STEP_CAP = 64
    SIZES = range(2, 33)
    GRAPH_REPEATS = 8  # graphs per (size, model)
    SUITE_BATCHES = 4
    SUITE_N_MAX = 20
    SUITE_COUNT = 19  # one pass over the sizes 2..20
    SCORE_BOARDS = 1
    SCORE_SOURCE_N = 3  # scored boards have 5 vertices and 10 slots
    SCORE_ENTRY_MAX = 1  # scored flows have entries 0..1

    def _short_graph(self, sf, rng, n, model):
        while True:
            spec = sf.generate.GeneratorSpec(n=n, seed=rng.getrandbits(64), model=model)
            g = sf.generate.generate(spec)
            board = as_board(g)
            source = checker.short_runs(board, self.STEP_CAP)
            if source is not None:
                return g, board, source

    def _short_batch_seed(self, sf, rng):
        # the batch stops at its first 19-vertex instance (fault 2), so
        # the instances up to that one are the ones it runs
        while True:
            seed = rng.getrandbits(64)
            stream = sf.generate.instance_stream(self.SUITE_N_MAX, self.SUITE_COUNT, seed)
            if all(
                checker.short_runs(as_board(g), self.STEP_CAP) is not None
                for spec, g in stream
                if spec.n <= 19
            ):
                return seed

    def _score_board(self, sf, rng, model):
        spec = sf.generate.GeneratorSpec(n=self.SCORE_SOURCE_N, seed=rng.getrandbits(64), model=model)
        g = sf.generate.generate(spec)
        inst = sf.local_search.LocalOptInstance(sf.reduction.augment(g))
        m = inst.m
        states = [
            sf.local_search.SearchState(v, flow)
            for flow in itertools.product(range(self.SCORE_ENTRY_MAX + 1), repeat=2 * m)
            for v in range(m)
        ]
        return g, inst, states

    def setup(self, sf, rng):
        graphs = [
            self._short_graph(sf, rng, n, model)
            for _ in range(self.GRAPH_REPEATS)
            for n in self.SIZES
            for model in sf.generate.MODELS
        ]
        batches = [self._short_batch_seed(sf, rng) for _ in range(self.SUITE_BATCHES)]
        boards = [
            self._score_board(sf, rng, sf.generate.MODELS[i % 2])
            for i in range(self.SCORE_BOARDS)
        ]
        return graphs, batches, boards

    def prepare(self, sf, inputs):
        self.inputs = self._expect(sf, *inputs)

    def _expect(self, sf, graphs, batches, boards):
        checked_graphs = []
        for g, board, source in graphs:
            aug = checker.augment(board)
            checked_graphs.append((g, source.terminated, aug, to_graph(sf, aug.board)))
        checked_boards = []
        for g, inst, states in boards:
            aug = checker.augment(as_board(g))
            terminals = (aug.board.dest, aug.d_bar)
            potentials, neighbors = [], []
            for s in states:
                p, nb, valid = checker.expected_score(aug, s.vertex, s.flow)
                p_next = checker.expected_score(aug, *nb)[0]
                # the characterization: local optimum iff valid at a terminal
                require(
                    (p >= p_next) == (valid and s.vertex in terminals),
                    f"characterization fails at {s}",
                )
                potentials.append(p)
                neighbors.append(nb)
            checked_boards.append((inst, states, potentials, neighbors))
        return checked_graphs, batches, checked_boards

    def round(self, sf, index, stats: RoundStats, inprocess: bool = False) -> None:
        graphs, batches, boards = self.inputs
        decide = sf.simulate.decide_arrival
        solve = sf.local_search.solve_s_arrival
        verify = sf.flows.verify
        for g, terminates, aug, aug_graph in graphs:
            verdict = stats.timed("decide", decide, g)
            if verdict is not None:
                require(verdict == terminates, f"decide said {verdict} on {g}")
            cert = stats.timed("solve", solve, g)
            check_cert(aug, cert, self_test=index == 0)
            require(cert.kind == kind_of(terminates), f"{cert.kind} certificate on {g}")
            report = stats.timed("verify", verify, aug_graph, cert.origin, cert.dest, cert.flow)
            require(report.valid, f"verify rejected the certificate of {g}")

        for seed in batches:
            stats.calibrate(due_only=True)
            start = time.perf_counter()
            report = sf.suite.run_checks(self.SUITE_N_MAX, self.SUITE_COUNT, seed)
            elapsed = time.perf_counter() - start
            passed = min(report.passed.values())
            # counted per instance: a batch stopped by fault 2 still
            # checked the instances before the one that failed
            stats.record("check_instances", passed, elapsed, ok=report.failure is None)
            if report.failure is None:
                require(passed == self.SUITE_COUNT, f"suite batch {seed} checked {passed}")
            else:
                f = report.failure
                require(
                    f.family == "internal" and FAULT_MESSAGE in f.detail and f.spec.n == 19,
                    f"suite batch {seed} failed: {f.family} at n={f.spec.n}: {f.detail}",
                )

        for inst, states, potentials, neighbors in boards:
            potential, neighbor = inst.potential, inst.neighbor
            got_p, got_n = [], []
            stats.calibrate(due_only=True)
            start = time.perf_counter()
            for s in states:
                got_p.append(potential(s))
                got_n.append(neighbor(s))
            stats.record("states_scored", len(states), time.perf_counter() - start)
            require(got_p == potentials, "potential disagrees with the definition")
            require(
                [(s.vertex, s.flow) for s in got_n] == neighbors,
                "neighbor disagrees with the definition",
            )


# -- cli-roundtrip -----------------------------------------------------------


class CliRoundtrip(Workload):
    """The five-command pipeline ``gen -> decide -> reduce -> solve ->
    verify-flow``, each command a fresh ``python -m switchflow.cli``
    process.  One round is one pipeline on the run's graph: one graph,
    so that each command is timed 50 to 70 times in a 40-second run,
    since a command takes 55 to 130 ms."""

    name = "cli-roundtrip"
    SIZE = 20  # decide refuses graphs above 20 vertices
    STEP_CAP = RandomMix.STEP_CAP
    COMMANDS = ("gen", "decide", "reduce", "solve", "verify-flow")
    KINDS = {"verify-flow": "verify"}  # the rate each command's process counts in

    def setup(self, sf, rng):
        model = rng.choice(sf.generate.MODELS)
        while True:
            spec = sf.generate.GeneratorSpec(n=self.SIZE, seed=rng.getrandbits(32), model=model)
            g = sf.generate.generate(spec)
            source = checker.short_runs(as_board(g), self.STEP_CAP)
            if source is not None:
                return spec, as_board(g), source.terminated

    def prepare(self, sf, case):
        self.case = case
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def _argv(self, command, spec, suffix=""):
        w = self.workdir
        graph, flow = str(w / "graph.json"), str(w / "flow.json")
        out = str(w / f"{command}{suffix}.out")
        if command == "gen":
            args = ["--n", str(spec.n), "--seed", str(spec.seed), "--model", spec.model]
            return ["gen", *args, "--output", str(w / f"graph{suffix}.json")]
        if command == "verify-flow":
            return ["verify-flow", "--input", str(w / "board.json"), "--flow", flow, "--output", out]
        return [command, "--input", graph, "--output", out]

    def _spawn(self, argv) -> float:
        cmd = [sys.executable, "-m", "switchflow.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, env=self.env, cwd=self.root, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        elapsed = time.perf_counter() - start
        require(proc.returncode == 0, f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return elapsed

    def _read(self, name):
        return (self.workdir / name).read_text(encoding="utf-8")

    def round(self, sf, index, stats: RoundStats, inprocess: bool = False) -> None:
        spec, board, terminates = self.case
        times = {}
        start = time.perf_counter()
        for command in self.COMMANDS:
            if command == "verify-flow":
                # the certificate carries a "kind" field the flow reader
                # rejects; the board is the first line of reduce's output
                cert = json.loads(self._read("solve.out"))
                flow = {k: cert[k] for k in ("origin", "dest", "counts")}
                (self.workdir / "flow.json").write_text(json.dumps(flow), encoding="utf-8")
                board_line = self._read("reduce.out").splitlines()[0]
                (self.workdir / "board.json").write_text(board_line, encoding="utf-8")
            stats.calibrate()
            times[command] = self._spawn(self._argv(command, spec))
        pipeline = time.perf_counter() - start
        for command in self.COMMANDS:
            stats.record(self.KINDS.get(command, command), 1, times[command])
            stats.samples[f"cli.{command}.process_ms"].append(times[command] * 1e3)
        stats.samples["cli.roundtrip_ms"].append(pipeline * 1e3)
        self.check(spec, board, terminates, index == 0)
        if inprocess:
            self.inprocess(sf, spec, stats)

    def check(self, spec, board: Board, terminates: bool, self_test: bool) -> None:
        doc = json.loads(self._read("graph.json"))
        got = Board(doc["n"], tuple(doc["even"]), tuple(doc["odd"]), doc["origin"], doc["dest"])
        require(got == board, f"gen {spec} printed {doc}")
        aug = checker.augment(board)
        reduce_lines = self._read("reduce.out").splitlines()
        h = json.loads(reduce_lines[0])
        sidecar = json.loads(reduce_lines[1])
        require(
            (h["n"], tuple(h["even"]), tuple(h["odd"]), h["origin"], h["dest"]) == tuple(aug.board),
            "reduce printed another board than the augmentation",
        )
        require(
            (sidecar["o_bar"], sidecar["d_bar"], sorted(sidecar["x_d"]))
            == (aug.o_bar, aug.d_bar, sorted(aug.unreachable)),
            f"reduce sidecar {sidecar}",
        )
        cert = json.loads(self._read("solve.out"))
        checker.check_certificate(aug, cert["kind"], cert["origin"], cert["dest"], cert["counts"])
        if self_test:
            checker.self_test(aug, cert["origin"], cert["dest"], cert["counts"])
        require(cert["kind"] == kind_of(terminates), f"solve printed a {cert['kind']} certificate")
        decided = self._read("decide.out").strip()
        require(
            decided == ("terminates" if terminates else "does-not-terminate"),
            f"decide printed {decided!r}",
        )
        require(json.loads(self._read("verify-flow.out"))["valid"] is True, "verify-flow: invalid")

    def inprocess(self, sf, spec, stats: RoundStats) -> None:
        """``cli.main`` on the same files in this process, and the import
        time of ``switchflow.cli`` in a fresh interpreter."""
        for command in self.COMMANDS:
            argv = self._argv(command, spec, suffix=".inproc")
            start = time.perf_counter()
            code = sf.cli.main(argv)
            elapsed = time.perf_counter() - start
            require(code == 0, f"cli.main({argv[0]}) returned {code}")
            stats.samples[f"cli.{command}.main_ms"].append(elapsed * 1e3)
        probe = (
            "import time; t = time.perf_counter(); import switchflow.cli; "
            "print((time.perf_counter() - t) * 1e3)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=self.env, cwd=self.root,
            stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
        )
        stats.samples["cli.import_ms"].append(float(out.stdout.strip()))


WORKLOADS = {w.name: w for w in (DeepChain, RandomMix, CliRoundtrip)}
