"""The run as a local search that cannot help solving the problem.

Each search state is a (vertex, profile) pair over the augmented board.
The neighbor of a valid non-terminal state advances the token one step;
everything else resets to the fresh origin.  The potential is the
number of steps walked so far.  Local optima are then exactly the valid
flows into a terminal, so any local-search routine that finds one has
decided termination and produced the certificate.

The script walks the improving path from the reset state, prints the
strict +1 ascent, round-trips states through the fixed-width bit
encoding, and extracts the final certificate.
"""

from switchflow import (
    LocalOptInstance,
    augment,
    extract_certificate,
    graph,
    solve_s_arrival,
    walk_localopt,
)
from switchflow.local_search import hex_decode, hex_encode


def main() -> None:
    g = graph(2, [1, 1], [1, 1], 0, 1)
    inst = LocalOptInstance(augment(g))
    print(
        f"board with {inst.m} vertices; states encode in {inst.total_bits} bits "
        f"({inst.vertex_bits} for the vertex, {inst.field_bits} per slot)"
    )

    state = inst.reset
    while True:
        pot = inst.potential(state)
        print(
            f"  vertex {state.vertex}, profile {list(state.flow)}, "
            f"potential {pot}, encoded {hex_encode(inst, state)}"
        )
        if inst.is_local_optimum(state):
            break
        state = inst.neighbor(state)

    solution, steps = walk_localopt(inst)
    assert solution == state
    print(f"walker reached the same optimum in {steps} steps")

    # The encoding is lossless, and the bit-level entry points evaluate
    # neighbor and potential directly on encoded states.
    bits = inst.encode(solution)
    assert inst.decode(bits) == solution
    assert hex_decode(inst, hex_encode(inst, solution)) == solution
    # The bit-level potential is shifted up by one so its range is
    # nonnegative; 0 is reserved for malformed encodings.
    print(f"shifted potential straight from the bits: {inst.potential_bits(bits)}")

    # Malformed encodings decode to a designated invalid state whose
    # neighbor is the reset state, so the search space has no holes.
    garbage = "1" * inst.total_bits
    print(f"all-ones is malformed: shifted potential {inst.potential_bits(garbage)}")

    for name, instance in [
        ("arriving", graph(2, [1, 1], [1, 1], 0, 1)),
        ("trapped", graph(3, [1, 0, 2], [1, 0, 2], 0, 2)),
    ]:
        cert = solve_s_arrival(instance)
        print(
            f"{name} graph: certificate kind '{cert.kind}', "
            f"flow into vertex {cert.dest}: {list(cert.flow)}"
        )
        # Anyone can re-check the certificate against the board; see
        # the verify-flow subcommand for the file-based version.
        inst2 = LocalOptInstance(augment(instance))
        recheck = extract_certificate(
            inst2, walk_localopt(inst2).solution
        )
        assert recheck == cert


if __name__ == "__main__":
    main()
