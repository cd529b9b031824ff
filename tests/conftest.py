"""Shared pytest setup: the Hypothesis profiles.

Tier-1 runs every property test at its own small budget under Hypothesis's
default profile.  ``--hypothesis-profile=deep`` raises the budget of the
properties that opt in through :func:`budget`; CI runs them that way (the
snapshot and sample-total properties in ``fault-smoke``, the solver cache
and evaluator properties and the event-summary audit and property in
``solver-bench``, the forced-steal property in ``distributed-bench``).
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=200)


def budget(tier1: int) -> int:
    """``tier1`` examples, or the ``deep`` profile's budget when loaded."""
    if settings.get_current_profile_name() == "deep":
        return settings.default.max_examples
    return tier1
