"""SDE — Scalable Symbolic Execution of Distributed Systems.

A full reproduction of Sasnauskas et al., ICDCS 2011: the COB, COW and SDS
state-mapping algorithms for symbolic distributed execution, together with
every substrate they need — a symbolic bitvector expression layer and
constraint solver, a C-like guest language compiled to a symbolic bytecode
VM, a discrete-event network simulation with symbolic failure injection, and
a Contiki/Rime-like sensornet OS library.

The stable public surface lives in :mod:`repro.api`; the top-level
re-exports below remain for backwards compatibility.

Quickstart::

    from repro.api import Scenario, run_scenario

    scenario = Scenario.grid(5, algorithm="sds")
    report = run_scenario(scenario)
    print(report.summary())

Subpackage map:

- :mod:`repro.expr`     — symbolic expressions (bitvectors + booleans)
- :mod:`repro.solver`   — constraint solving, caching, models
- :mod:`repro.lang`     — the NSL guest language (lexer/parser/compiler)
- :mod:`repro.vm`       — the symbolic virtual machine
- :mod:`repro.sim`      — discrete-event simulation primitives
- :mod:`repro.net`      — topologies, packets, failure models
- :mod:`repro.oslib`    — Contiki-like node OS + Rime-like stack
- :mod:`repro.core`     — the paper's contribution: SDE state mapping
- :mod:`repro.workloads`— the paper's evaluation scenarios
- :mod:`repro.bench`    — Table I / Figure 10 regeneration harness
"""

__version__ = "1.0.0"

from .core import (  # noqa: F401,E402
    ALGORITHMS,
    COBMapper,
    COWMapper,
    RunReport,
    Scenario,
    SDEEngine,
    SDSMapper,
    StateMapper,
    build_engine,
    make_mapper,
    run_scenario,
)
from .net import Topology  # noqa: F401,E402

__all__ = [
    "__version__",
    "ALGORITHMS",
    "COBMapper",
    "COWMapper",
    "SDSMapper",
    "StateMapper",
    "SDEEngine",
    "RunReport",
    "Scenario",
    "Topology",
    "build_engine",
    "make_mapper",
    "run_scenario",
]
