"""Shared pytest setup: the Hypothesis profiles.

Tier-1 runs every property test at its own small budget under Hypothesis's
default profile.  ``--hypothesis-profile=deep`` raises the budget of the
properties that opt in (``tests/core/test_snapshot.py``); CI's
``fault-smoke`` job runs them that way.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=200)
