"""Independent correctness checker for the benchmark.

Everything here is written from the definitions in the ARRIVAL papers
(Dohrau, Gärtner, Kohler, Matoušek, Welzl 2017; Gärtner et al. 2018),
not from ``switchflow``: nothing in this module imports the package.
Graphs are plain ``Board`` tuples, so a wrong record type or a wrong
helper in the package cannot make a wrong answer look right here.

* ``flow_violations`` checks the two switching-flow conditions:
  conservation (outflow minus inflow is +1 at the origin, -1 at the
  destination, 0 elsewhere) and parity (``0 <= odd <= even <= odd + 1``).
* ``augment`` builds the augmented board: a fresh origin ``o_bar`` whose
  two slots feed the origin, a self-looped fresh sink ``d_bar``, the
  destination turned into a self-looped sink, and every vertex that
  cannot reach the destination rewired to ``d_bar``.
* ``reference_run`` steps the token with a visited-state set.
* ``counter_chain``, ``trap_chain`` and ``bouncer_chain`` are the deep
  families, each with its closed form.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class CheckFailed(AssertionError):
    """A program output disagrees with the independent computation."""


class Board(NamedTuple):
    n: int
    even: tuple[int, ...]
    odd: tuple[int, ...]
    origin: int
    dest: int


class Augmented(NamedTuple):
    board: Board  # origin is o_bar, dest the source destination
    o_bar: int
    d_bar: int
    unreachable: frozenset[int]


class RunResult(NamedTuple):
    terminated: bool
    steps: int  # steps taken until the destination or the repeated state


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def reaches(board: Board, target: int) -> frozenset[int]:
    """Vertices with a path to ``target``, by forward fixpoint iteration."""
    inside = {target}
    changed = True
    while changed:
        changed = False
        for v in range(board.n):
            if v not in inside and (board.even[v] in inside or board.odd[v] in inside):
                inside.add(v)
                changed = True
    return frozenset(inside)


def augment(board: Board) -> Augmented:
    n = board.n
    o_bar, d_bar = n, n + 1
    unreachable = frozenset(range(n)) - reaches(board, board.dest)
    even, odd = [], []
    for v in range(n):
        if v == board.dest:
            heads = (v, v)
        elif v in unreachable:
            heads = (d_bar, d_bar)
        else:
            heads = (board.even[v], board.odd[v])
        even.append(heads[0])
        odd.append(heads[1])
    even += [board.origin, d_bar]
    odd += [board.origin, d_bar]
    h = Board(n + 2, tuple(even), tuple(odd), o_bar, board.dest)
    return Augmented(h, o_bar, d_bar, unreachable)


def flow_violations(
    board: Board, origin: int, dest: int, counts: Sequence[int]
) -> list[str]:
    """Every violated condition; empty means ``counts`` is a switching flow.

    With ``origin == dest`` the required imbalance is 0 everywhere, the
    convention under which the empty flow at the fresh origin is valid.
    """
    n = board.n
    if len(counts) != 2 * n:
        return [f"flow has {len(counts)} entries, board has {2 * n} slots"]
    if not (0 <= origin < n and 0 <= dest < n):
        return [f"endpoints {origin}->{dest} outside 0..{n - 1}"]
    balance = [0] * n
    problems = []
    for v in range(n):
        x_even, x_odd = counts[2 * v], counts[2 * v + 1]
        if not 0 <= x_odd <= x_even <= x_odd + 1:
            problems.append(f"parity at {v}: even {x_even}, odd {x_odd}")
        balance[v] += x_even + x_odd
        balance[board.even[v]] -= x_even
        balance[board.odd[v]] -= x_odd
    for v in range(n):
        want = 0 if origin == dest else (v == origin) - (v == dest)
        if balance[v] != want:
            problems.append(f"conservation at {v}: net {balance[v]}, required {want}")
    return problems


def flow_valid(board: Board, origin: int, dest: int, counts: Sequence[int]) -> bool:
    return not flow_violations(board, origin, dest, counts)


def reference_run(
    board: Board, targets: Sequence[int], cap: int | None = None
) -> RunResult | None:
    """Step from the origin until a target or a repeated (vertex, switches)
    state; ``None`` if neither happens within ``cap`` steps."""
    position = [0] * board.n  # 0: next departure is even, 1: odd
    v = board.origin
    seen: set[tuple[int, tuple[int, ...]]] = set()
    steps = 0
    while v not in targets:
        key = (v, tuple(position))
        if key in seen:
            return RunResult(False, steps)
        seen.add(key)
        if cap is not None and steps >= cap:
            return None
        parity = position[v]
        position[v] ^= 1
        v = board.odd[v] if parity else board.even[v]
        steps += 1
    return RunResult(True, steps)


def short_runs(board: Board, cap: int) -> RunResult | None:
    """The source run's result if both it and the augmented run end (at a
    terminal or a repeated state) within ``cap`` steps, else ``None``."""
    source = reference_run(board, (board.dest,), cap)
    if source is None:
        return None
    aug = augment(board)
    if reference_run(aug.board, (aug.board.dest, aug.d_bar), cap) is None:
        return None
    return source


# -- certificates ------------------------------------------------------------


def check_certificate(
    aug: Augmented, kind: str, origin: int, dest: int, counts: Sequence[int]
) -> None:
    """A certificate is a switching flow from ``o_bar`` to one terminal of
    the augmented board; a flow to ``d`` proves termination, a flow to
    ``d_bar`` proves non-termination."""
    require(origin == aug.o_bar, f"certificate origin {origin}, fresh origin is {aug.o_bar}")
    expected_dest = {"termination": aug.board.dest, "non-termination": aug.d_bar}
    require(kind in expected_dest, f"unknown certificate kind {kind!r}")
    require(
        dest == expected_dest[kind],
        f"{kind} certificate ends at {dest}, expected {expected_dest[kind]}",
    )
    problems = flow_violations(aug.board, origin, dest, counts)
    require(not problems, f"{kind} certificate is not a switching flow: {problems[:3]}")


def corruptions(aug: Augmented, origin: int, dest: int, counts: Sequence[int]):
    """Two corrupted copies of a certificate: one count raised by one on a
    slot that is not a self-loop, and the flow relabelled to the other
    terminal.  Each must be rejected."""
    h = aug.board
    slot = next(
        s for s in range(2 * h.n) if (h.odd if s % 2 else h.even)[s // 2] != s // 2
    )
    bumped = list(counts)
    bumped[slot] += 1
    other = aug.d_bar if dest == h.dest else h.dest
    return [("count changed", origin, dest, bumped), ("relabelled", origin, other, list(counts))]


def self_test(aug: Augmented, origin: int, dest: int, counts: Sequence[int]) -> None:
    """The checker must accept a certificate and reject both corruptions."""
    require(flow_valid(aug.board, origin, dest, counts), "self-test: certificate rejected")
    for name, o, d, c in corruptions(aug, origin, dest, counts):
        require(
            not flow_valid(aug.board, o, d, c),
            f"self-test: checker accepted a corrupted certificate ({name})",
        )


# -- local-search states -----------------------------------------------------


def expected_score(aug: Augmented, v: int, flow: tuple[int, ...]):
    """(potential, neighbor) of a state from the definitions: the potential
    is the entry sum of a valid flow from ``o_bar`` to ``v`` and -1
    otherwise; a valid non-terminal state steps the token once along the
    slot its parity imbalance selects, every other state maps to the
    reset state (``o_bar``, all zeros)."""
    h = aug.board
    m = h.n
    in_domain = 0 <= v < m and len(flow) == 2 * m and all(0 <= e <= 1 << m for e in flow)
    valid = in_domain and flow_valid(h, aug.o_bar, v, flow)
    potential = sum(flow) if valid else -1
    if valid and v not in (h.dest, aug.d_bar):
        slot = 2 * v + flow[2 * v] - flow[2 * v + 1]
        stepped = list(flow)
        stepped[slot] += 1
        head = h.odd[v] if slot % 2 else h.even[v]
        return potential, (head, tuple(stepped)), valid
    return potential, (aug.o_bar, (0,) * (2 * m)), valid


# -- deep families -----------------------------------------------------------


def counter_chain(n: int) -> Board:
    """Binary counter: even slots restart at 0, odd slots advance.  The run
    terminates after ``2**n - 2`` steps."""
    even = [0] * (n - 1) + [n - 1]
    odd = list(range(1, n)) + [n - 1]
    return Board(n, tuple(even), tuple(odd), 0, n - 1)


def counter_steps(n: int) -> int:
    return 2**n - 2


def trap_chain(n: int) -> Board:
    """Counter on vertices ``0..n-3`` whose top vertex ``n-3`` leaves on
    its even slot into the self-looped trap ``n-2`` and on its odd slot to
    the destination ``n-1``.  The first departure from the top is even, so
    the run never terminates."""
    k = n - 2
    even = [0] * (k - 1) + [k, k, k + 1]
    odd = list(range(1, k)) + [k + 1, k, k + 1]
    return Board(n, tuple(even), tuple(odd), 0, n - 1)


def trap_witness(n: int) -> tuple[int, int, int, int]:
    """(trap vertex, top vertex, first step, second step) of the first
    repeated state: the top is first reached after ``2**(n-2) - 2`` steps
    with every lower switch back on even, the token enters the trap at
    step ``2**(n-2) - 1``, and two self-loop steps later the state
    (trap, only the top's switch flipped) recurs."""
    return n - 2, n - 3, 2 ** (n - 2) - 1, 2 ** (n - 2) + 1


def bouncer_chain(n: int) -> Board:
    """Interior vertices bounce back on even and advance on odd; the run
    terminates after ``(n - 1)**2`` steps."""
    even = [1] + [v - 1 for v in range(1, n - 1)] + [n - 1]
    odd = [1] + [v + 1 for v in range(1, n - 1)] + [n - 1]
    return Board(n, tuple(even), tuple(odd), 0, n - 1)


def bouncer_steps(n: int) -> int:
    return (n - 1) ** 2


def relabel(board: Board, perm: Sequence[int]) -> Board:
    """The same board with vertex ``v`` renamed ``perm[v]``; run lengths,
    verdicts and certificate sizes are unchanged."""
    n = board.n
    even = [0] * n
    odd = [0] * n
    for v in range(n):
        even[perm[v]] = perm[board.even[v]]
        odd[perm[v]] = perm[board.odd[v]]
    return Board(n, tuple(even), tuple(odd), perm[board.origin], perm[board.dest])
