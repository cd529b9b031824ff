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
from ..core.scenario import run_scenario

__all__ = ["full_scale", "run_algorithms"]


def full_scale() -> bool:
    """True when SDE_FULL=1: run the paper's full-size configurations."""
    return os.environ.get("SDE_FULL", "") == "1"


def run_algorithms(
    scenario_factory,
    algorithms: Sequence[str] = ("cob", "cow", "sds"),
    cob_max_states: Optional[int] = None,
    cob_max_wall_seconds: Optional[float] = None,
) -> List[RunReport]:
    """Run a fresh scenario instance per algorithm (caps apply to COB only,
    mirroring the paper's aborted COB run)."""
    caps = {
        name: value
        for name, value in (
            ("max_states", cob_max_states),
            ("max_wall_seconds", cob_max_wall_seconds),
        )
        if value is not None
    }
    return [
        run_scenario(
            scenario_factory(), algorithm, **(caps if algorithm == "cob" else {})
        )
        for algorithm in algorithms
    ]
