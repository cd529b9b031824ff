"""Optimizations must be semantically invisible.

The acceptance bar for every performance tier — the solver
query-optimization pipeline, opcode fusion (superinstructions) and
loop-increment constraint reuse: for every mapping algorithm, the
canonical trace multiset of a run is the one pinned in the golden matrix
(``golden/matrix.json``), which was cut while each optimization could
still be switched off and every variant agreed.  Memoized models,
verdict memos, canonicalization, the counterexample cache, fused
dispatch and delta re-simplification may only change *how* a result is
reached, never which result — and never a fork, a send, a delivery or a
mapper copy downstream of one.

What is still switchable is also checked live: the fused and unfused
decodings, and the verdict cache on and off, must produce identical
traces.  What is always on is checked live against its unoptimized
reference: every query a run issues is re-decided by the bare backend
search over the as-added conjuncts, and every memoized canonical form
and model verdict is compared with one computed from scratch.
"""

import functools

import pytest

from repro.api import Scenario, Topology, build_engine
from repro.solver import Model, Solver
from repro.solver.search import search

from . import golden

GOLDEN = golden.load()
SCENARIOS = golden.scenarios()
ALGORITHMS = golden.ALGORITHMS
#: workloads of the live comparisons
LIVE_WORKLOADS = ("flood", "dissemination", "symbolic")


class AuditingSolver(Solver):
    """A :class:`Solver` that records every query it answers, and counts
    the queries that event-summary replays account from recorded answers
    without asking (``tests/core/test_summary_audit.py`` checks those
    answers against a fresh solver on every golden cell)."""

    def __init__(self) -> None:
        super().__init__()
        self.answered = []
        self.replayed = 0

    def _check(self, cset, extra=None):
        result = super()._check(cset, extra)
        self.answered.append((cset, extra, result))
        return result

    def replay_branches(self, totals, path_length):
        super().replay_branches(totals, path_length)
        self.replayed += 2 * totals.calls


def _audited_queries(workload, algorithm):
    """Run one golden cell; ``(raw, extra) -> (cset, model)`` per query
    asked.

    The run itself must reproduce its golden entry, and its asked and
    replayed queries must add up to its query count.
    """
    solver = AuditingSolver()
    entry, _ = golden.run(SCENARIOS[workload], algorithm, solver=solver)
    assert entry == GOLDEN[f"{workload}/{algorithm}"]
    assert len(solver.answered) + solver.replayed == entry["solver.queries"]
    queries = {}
    for cset, extra, model in solver.answered:
        queries.setdefault((cset.raw(), extra), (cset, model))
    return queries


def _conjuncts(raw, extra):
    return raw if extra is None else raw + (extra,)


@functools.lru_cache(maxsize=None)
def _backend_sat(conjuncts):
    """The reference verdict: plain search over ``conjuncts`` as given —
    no canonicalization, partition, cache, memo or model shortcut."""
    variables = frozenset(v for c in conjuncts for v in c.variables())
    return search(list(conjuncts), variables) is not None


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workload", list(SCENARIOS))
def test_golden_matrix(workload, algorithm):
    """A fresh run reproduces its committed golden entry exactly."""
    entry, report = golden.run(SCENARIOS[workload], algorithm)
    assert entry == GOLDEN[f"{workload}/{algorithm}"]
    if workload == "equality32":
        # The delta canonicalization path is exercised, not just present.
        assert report.metrics["counters"]["solver.simplify.delta"] > 0


def test_golden_matrix_is_complete():
    assert set(GOLDEN) == {
        f"{workload}/{algorithm}"
        for workload in SCENARIOS
        for algorithm in ALGORITHMS
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workload", LIVE_WORKLOADS)
def test_solver_optimizer_invisible(workload, algorithm):
    """Every pipeline verdict == the bare backend's on the raw query.

    The run reproduces its golden entry with the whole pipeline on and
    again with the verdict cache off.  Each distinct query is then
    re-decided by plain search over its as-added conjuncts, and every
    SAT model must satisfy them under a fresh, memo-free evaluation.
    """
    queries = _audited_queries(workload, algorithm)
    uncached, _ = golden.run(SCENARIOS[workload], algorithm, solver_cache=False)
    assert uncached == GOLDEN[f"{workload}/{algorithm}"]
    for (raw, extra), (_, model) in queries.items():
        conjuncts = _conjuncts(raw, extra)
        assert (model is not None) == _backend_sat(conjuncts), conjuncts
        if model is not None:
            assert Model(model.as_dict()).satisfies(conjuncts), conjuncts


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workload", LIVE_WORKLOADS)
def test_opcode_fusion_invisible(workload, algorithm):
    """Superinstruction dispatch == base-ISA dispatch, per trace multiset."""
    unfused, _ = golden.run(SCENARIOS[workload], algorithm, fuse_ops=False)
    fused, _ = golden.run(SCENARIOS[workload], algorithm)
    assert fused == unfused


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workload", LIVE_WORKLOADS)
def test_loop_reuse_invisible(workload, algorithm):
    """Delta canonicalization + model memos never flip a verdict.

    For every path condition the run queried, its canonical form — built
    incrementally, through the delta path wherever a conjunct introduced
    an equality — is equisatisfiable with its raw conjuncts, and its
    memoized model's per-conjunct verdicts equal a fresh evaluation.
    """
    queries = _audited_queries(workload, algorithm)
    for (raw, extra), (cset, _) in queries.items():
        canonical = cset.canonical()
        if canonical is None:
            assert not _backend_sat(raw), raw
        else:
            assert _backend_sat(canonical) == _backend_sat(raw), raw
        model = cset.cached_model()
        if model is not None:
            fresh = Model(model.as_dict())
            assert fresh.satisfies(raw), raw
            for conjunct in _conjuncts(raw, extra):
                verdict = fresh.satisfies((conjunct,))
                assert model.satisfies((conjunct,)) == verdict, conjunct


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_everything_off_equals_everything_on(algorithm):
    """Every switch that remains (verdict cache, opcode fusion) off vs
    all on, on the symbolic-readings program; both runs reproduce the
    golden entry."""
    scenario = SCENARIOS["symbolic"]
    off, _ = golden.run(scenario, algorithm, solver_cache=False, fuse_ops=False)
    on, _ = golden.run(scenario, algorithm)
    assert off == on == GOLDEN[f"symbolic/{algorithm}"]


#: Symbolic readings guarded by assertions, so reduction runs report
#: real violations for the verdict gate below.
GUARDED_READINGS = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    assert(v < 200, 7);
    seen += 1;
}
"""

REDUCTION_TOPOLOGIES = [
    Topology.full_mesh(3),
    Topology.line(3),
    Topology.ring(4),
    Topology.grid(2, 2),
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    "topology", REDUCTION_TOPOLOGIES, ids=lambda t: t.name
)
def test_reduction_preserves_verdicts(topology, algorithm):
    """Symmetry + POR prune states, never reported violations.

    Unlike the solver/interpreter optimizations, reduction is
    *not* trace-invisible — it exists to skip work — so the gate is the
    canonical violation set (``repro.core.reduce.canonical_violations``):
    reduction on vs. off must report the same bugs, per (kind, message,
    line, code, node orbit).
    """
    from repro.core.reduce import canonical_violations

    scenario = Scenario(
        name=f"guarded-{topology.name}",
        program=GUARDED_READINGS,
        topology=topology,
        horizon_ms=300,
    )
    off = build_engine(scenario, algorithm).run()
    on = build_engine(scenario, algorithm, symmetry=True, por=True).run()
    verdicts_off = canonical_violations(off, topology)
    assert verdicts_off, "gate is vacuous: scenario reported no violations"
    assert canonical_violations(on, topology) == verdicts_off
    assert on.total_states <= off.total_states
