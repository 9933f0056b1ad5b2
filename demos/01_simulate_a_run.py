"""Watch a token walk a switch graph.

Every vertex carries a switch pointing at one of its two outgoing
edges.  The token leaves along the switch's current edge, the switch
flips to the other edge, and the walk either reaches the destination
or provably never will.  This script runs three tiny hand-built graphs
and prints what the simulator saw: the step-by-step trace, the edge
profile, and, for the last graph, the repeated state proving the token
is trapped.
"""

from switchflow import Verdict, graph, run, run_prefix
from switchflow.simulate import format_trace, replay


def show(name: str, g) -> None:
    outcome = run(g)
    print(f"== {name}: n={g.n} even={list(g.even)} odd={list(g.odd)}")
    print(f"   origin {g.origin} -> dest {g.dest}")
    # The run reports its outcome; the trace replays the outcome's steps.
    for line in format_trace(replay(g, outcome.steps)):
        print("   " + line)
    print(f"   verdict: {outcome.verdict.value} after {outcome.steps} steps")
    print(f"   profile by slot (even, odd per vertex): {list(outcome.profile)}")
    if outcome.cycle_witness is not None:
        w = outcome.cycle_witness
        print(
            f"   state (vertex={w.vertex}, switches={w.switches:b}) repeats "
            f"at steps {w.first_step} and {w.second_step}"
        )
    print()


def main() -> None:
    # One hop: the origin's even edge already points at the destination.
    show("straight shot", graph(2, [1, 1], [1, 1], 0, 1))

    # The even edge loops back first, so arrival takes a second visit.
    show("one bounce", graph(2, [0, 1], [1, 1], 0, 1))

    # Vertices 0 and 1 only feed each other; the destination is cut off.
    trapped = graph(3, [1, 0, 2], [1, 0, 2], 0, 2)
    show("trapped", trapped)

    # Prefixes of a run can be replayed without re-running the whole
    # walk; handy for inspecting long runs at chosen cut-offs.
    g = graph(2, [0, 1], [1, 1], 0, 1)
    for t in range(3):
        state = run_prefix(g, t)
        print(
            f"after {t} step(s): token at {state.vertex}, "
            f"profile {list(state.profile)}"
        )
    assert run(g).verdict is Verdict.TERMINATED


if __name__ == "__main__":
    main()
