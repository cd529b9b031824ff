"""Shared benchmark runner.

All paper-reproduction benchmarks funnel through :func:`run_algorithms`:
one scenario, the three mapping algorithms, uniform caps, and a
:class:`~repro.core.engine.RunReport` per run, which carries Table I's
columns (runtime / states / peak RAM) and the growth series behind
Figure 10.

Scale control: benchmarks default to parameters sized for a laptop run
(minutes, not the paper's 9h39m); setting the environment variable
``SDE_FULL=1`` switches every benchmark to the paper's full parameters
(10-second simulations, high caps).  The *shape* of the results — who wins,
by what factor, where COB gets aborted — is preserved at either scale.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from ..core.engine import RunReport
from ..core.scenario import Scenario, build_engine

__all__ = ["full_scale", "run_algorithms", "run_one"]


def full_scale() -> bool:
    """True when SDE_FULL=1: run the paper's full-size configurations."""
    return os.environ.get("SDE_FULL", "") == "1"


def run_one(
    scenario: Scenario,
    algorithm: str,
    max_states: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
) -> RunReport:
    """Run one scenario under one algorithm and return its report."""
    overrides = {}
    if max_states is not None:
        overrides["max_states"] = max_states
    if max_wall_seconds is not None:
        overrides["max_wall_seconds"] = max_wall_seconds
    return build_engine(scenario, algorithm, **overrides).run()


def run_algorithms(
    scenario_factory,
    algorithms: Sequence[str] = ("cob", "cow", "sds"),
    cob_max_states: Optional[int] = None,
    cob_max_wall_seconds: Optional[float] = None,
) -> List[RunReport]:
    """Run a fresh scenario instance per algorithm (caps apply to COB only,
    mirroring the paper's aborted COB run)."""
    reports = []
    for algorithm in algorithms:
        scenario = scenario_factory()
        if algorithm == "cob":
            report = run_one(
                scenario,
                algorithm,
                max_states=cob_max_states,
                max_wall_seconds=cob_max_wall_seconds,
            )
        else:
            report = run_one(scenario, algorithm)
        reports.append(report)
    return reports
