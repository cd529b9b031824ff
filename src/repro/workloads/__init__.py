"""Evaluation scenarios: the paper's grids, the line example, the flooding
limitation case, and the guest programs they run.

Besides the factory functions, the module keeps a name -> factory
*registry* so tools (the CLI, benchmark drivers, :mod:`repro.api` users)
can build workloads from strings; :func:`register_workload` admits
out-of-tree scenarios to the same machinery.
"""

from typing import Callable, Dict

from .dissemination import (  # noqa: F401
    DISSEMINATION_APP,
    dissemination_scenario,
    first_gossip_packet,
)
from .election import (  # noqa: F401
    ELECTION_APP,
    election_scenario,
    id_gossip_from_max,
)
from .flood import flood_scenario  # noqa: F401
from .grid import PAPER_SIZES, grid_scenario, paper_grid_scenario  # noqa: F401
from .line import line_scenario  # noqa: F401
from .programs import collect_program, flood_program
from .quorum import QUORUM_APP, quorum_scenario, write_packet  # noqa: F401

#: built-in workload name -> scenario factory.  Factories take the
#: workload size as their first argument; further keywords are
#: factory-specific (see each module).
WORKLOADS: Dict[str, Callable] = {
    "grid": grid_scenario,
    "line": line_scenario,
    "flood": flood_scenario,
    "dissemination": dissemination_scenario,
    "election": election_scenario,
    "quorum": quorum_scenario,
}

#: built-in workload name -> the source of the guest program its scenarios
#: run, which no size or factory argument changes (the job service
#: compiles each program once and hands it to its workers)
WORKLOAD_PROGRAMS: Dict[str, str] = {
    "grid": collect_program(),
    "line": collect_program(),
    "flood": flood_program(),
    "dissemination": DISSEMINATION_APP,
    "election": ELECTION_APP,
    "quorum": QUORUM_APP,
}


def register_workload(name: str, factory: Callable) -> None:
    """Register (or replace) a workload factory under ``name``."""
    WORKLOADS[name] = factory
    WORKLOAD_PROGRAMS.pop(name, None)  # its program is no longer known


def available_workloads() -> tuple:
    """Every registered workload name, sorted."""
    return tuple(sorted(WORKLOADS))


def make_workload(name: str, *args, **kwargs):
    """Build a scenario from a registered workload name."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {available_workloads()}"
        ) from None
    return factory(*args, **kwargs)
from .programs import (  # noqa: F401
    BUGGY_DEDUP_APP,
    COLLECT_APP,
    FLOOD_APP,
    PING_PONG_APP,
    branch_storm_program,
    buggy_dedup_program,
    first_collect_packet,
)
