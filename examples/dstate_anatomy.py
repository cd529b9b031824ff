#!/usr/bin/env python3
"""Anatomy of a state mapping: watch the paper's figures happen live.

Drives a 3-node line through the exact situation of Figures 3 and 4 —
a local branch followed by a conflicted transmission — and renders the
resulting dscenario/dstate/virtual-state structure for each algorithm,
reproducing the paper's diagrams as ASCII.

Run: ``python examples/dstate_anatomy.py``
"""

from repro.api import Scenario, Topology, build_engine
from repro.core.tracing import render_groups, render_virtual_structure
from repro.net import SymbolicPacketDrop

# Node 2 sends to node 1 (which may drop -> the local branch of Figure 3);
# node 1 then forwards to node 0 (the conflicted transmission of Figure 4).
PROGRAM = """
var got;
func on_boot() {
    if (node_id() == 2) { timer_set(0, 100); }
}
func on_timer(tid) {
    var buf[1];
    buf[0] = 7;
    uc_send(1, buf, 1);
}
func on_recv(src, len) {
    got = recv_byte(0);
    if (node_id() == 1) {
        var buf[1];
        buf[0] = got + 1;
        uc_send(0, buf, 1);
    }
}
"""


def scenario():
    return Scenario(
        name="anatomy",
        program=PROGRAM,
        topology=Topology.line(3),
        horizon_ms=1000,
        failure_factory=lambda: [SymbolicPacketDrop([1])],
    )


def main() -> int:
    for algorithm, caption in (
        ("cob", "Figure 3: the branch forked BOTH dscenarios completely"),
        ("cow", "Figure 4: the conflicted forward forked targets AND the"
                " bystander (node 2's copy is a pure duplicate)"),
        ("sds", "Figures 6-8: only the target forked; both dstates hold"
                " node 2's one member list"),
    ):
        engine = build_engine(scenario(), algorithm, check_invariants=True)
        report = engine.run()
        print("=" * 66)
        print(f"{algorithm.upper()} — {report.total_states} states,"
              f" {report.group_count} groups")
        print("=" * 66)
        print(render_groups(engine.mapper))
        if algorithm == "sds":
            print()
            print(render_virtual_structure(engine.mapper))
        print(f"\n  {caption}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
