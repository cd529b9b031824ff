"""The engine needs no graph library.

networkx is a test-only reference (the ``test`` extra).  A fresh
interpreter in which ``import networkx`` fails must still import
``repro.api`` and run the code that once used it: automorphism groups
(symmetry reduction and ``canonical_violations``) and routed unicast on
the realistic medium.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = '''
import sys
sys.modules["networkx"] = None  # any "import networkx" now fails

from repro.api import Scenario, Topology, build_engine, canonical_violations
from repro.workloads import election_scenario

FLOOD = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) { var buf[1]; buf[0] = symbolic("reading", 8); bc_send(buf, 1); }
func on_recv(src, len) { if (recv_byte(0) > 32) { seen += 1; } else { seen += 2; } }
"""
flood = Scenario(
    name="flood-mesh4", program=FLOOD, topology=Topology.full_mesh(4), horizon_ms=100
)
counters = build_engine(flood, "sds", symmetry=True, por=True).run().metrics["counters"]
assert counters["reduce.disabled"] == 0, counters
assert counters["reduce.pruned"] > 0 and counters["reduce.slept_twins"] > 0, counters

election = election_scenario(
    5, medium="realistic", medium_params={"loss": 0.1, "seed": 3}
)
engine = build_engine(election, "sds")
report = engine.run()
assert engine.medium.delivered.value > 0
violations = canonical_violations(report, election.topology)
assert violations, "the budget-1 drop elects two leaders"
print("ok", len(violations))
'''


def test_engine_runs_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok ")
