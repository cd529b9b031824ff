#!/usr/bin/env python3
"""The paper's evaluation scenario: grid data collection with symbolic drops.

A side x side Contiki-like grid (Figure 9): the bottom-right node produces a
reading every simulated second; on-path nodes forward it hop by hop along
the preconfigured static route to the sink in the top-left corner; nodes on
the data path and their neighbours may symbolically drop the first packet.

Runs the scenario under COB, COW and SDS and prints a Table-I-style
comparison plus the delivery outcomes SDE explored at the sink.

Run: ``python examples/grid_collect.py [side] [sim_seconds]``
     (defaults: side=4, sim_seconds=5; the paper uses 5/7/10 and 10 s)
"""

import sys
from collections import Counter

from repro.api import build_engine
from repro.bench import render_table1
from repro.workloads import grid_scenario


def main() -> int:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    sim_seconds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    nodes = side * side

    scenario = grid_scenario(side, sim_seconds=sim_seconds)
    topology = scenario.topology
    source, sink = nodes - 1, 0
    route = topology.route(source, sink)
    on_path, neighbors, bystanders = topology.path_roles(source, sink)
    print(f"{side}x{side} grid, source={source} -> sink={sink}")
    print(f"static route ({len(route) - 1} hops): {route}")
    print(
        f"roles: {len(on_path)} on-path, {len(neighbors)} overhearing"
        f" neighbours, {len(bystanders)} bystander nodes\n"
    )

    reports = []
    engines = {}
    for algorithm in ("cob", "cow", "sds"):
        engine = build_engine(
            grid_scenario(side, sim_seconds=sim_seconds),
            algorithm,
            max_states=200_000 if algorithm == "cob" else None,
            max_wall_seconds=60.0 if algorithm == "cob" else None,
        )
        reports.append(engine.run())
        engines[algorithm] = engine

    print(render_table1(reports, f"{nodes}-node grid with symbolic packet drops"))
    print()

    # What did SDE find?  Every distinct delivery outcome at the sink.
    sds = engines["sds"]
    delivered_address = sds.program.global_address("delivered")
    outcomes = Counter(
        state.memory[delivered_address] for state in sds.states_of_node(sink)
    )
    print("sink delivery outcomes explored (delivered-count -> #states):")
    for delivered in sorted(outcomes):
        print(f"  {delivered:3d} packets delivered: {outcomes[delivered]} states")
    print(
        "\nEach outcome corresponds to a concrete, replayable drop pattern;"
        "\nuse repro.core.generate_incrementally() to emit the test cases."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
