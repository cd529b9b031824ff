"""Constraint solver for the symbolic VM (stands in for KLEE's STP).

Sound-and-complete decision procedure for conjunctions of comparisons over
fixed-width bitvector expressions, built from interval propagation,
independence partitioning, complete splitting search, and KLEE-style query
caching.
"""

from .cache import SolverCache  # noqa: F401
from .constraints import EMPTY, ConstraintSet, as_constraint_set  # noqa: F401
from .core import (  # noqa: F401
    BranchTotals,
    SearchBudgetExceeded,
    Solver,
    SolverError,
    UnsatisfiableError,
)
from .independence import group_for, partition  # noqa: F401
from .model import Model  # noqa: F401
from .propagate import Infeasible, propagate  # noqa: F401
from .search import ENUMERATION_LIMIT, search  # noqa: F401
from .simplify import simplify_conjuncts, substitute  # noqa: F401
