"""Gate fresh ``BENCH_*.json`` numbers against committed baselines.

Usage::

    python benchmarks/check_trend.py BENCH_solver.json [baseline.json]

The baseline (default: ``benchmarks/baselines/<same name>``) pins the
*gated* keys — scale-free ratios, deterministic counts and *calibrated*
wall-clock numbers, none of which should drift with runner hardware —
each with the direction that counts as better::

    {
      "gates": {
        "flood_wall_calibrated_s": {"direction": "lower", "value": 0.3}
      },
      "recorded": { ... the full artifact the baseline was cut from ... }
    }

Calibrated keys (``*_calibrated*``) are wall-clock times or rates scaled
to a reference host by the calibration loop of ``benchmarks.ladder.child``
(timed before and after the measurement), so they are gated like counts.
A gated key failing by more than ``TOLERANCE`` (25% adverse change, the
headroom left for CI jitter) fails the check; a gated key missing from
the fresh artifact fails immediately — silently dropping a measurement
is how perf gates rot.  Raw wall-clock keys stay ungated (they track
runner hardware); they are still printed for the log.  A fresh key that the
baseline's ``recorded`` section has never seen is printed as a
``WARNING`` line — not a failure, but a prompt to refresh the baseline —
so new measurements cannot slip past review unnoticed.

To cut a new baseline after an intentional change, re-run the bench with
``SDE_BENCH_JSON`` and copy the fresh values into the committed file.
"""

from __future__ import annotations

import json
import os
import sys

TOLERANCE = 0.25

__all__ = ["check_trend"]


def _adverse_change(direction: str, baseline: float, fresh: float) -> float:
    """Fractional regression of ``fresh`` vs ``baseline`` (<=0 is fine)."""
    if baseline == 0:
        return 0.0 if fresh == 0 else (1.0 if direction == "lower" else -1.0)
    change = (fresh - baseline) / abs(baseline)
    return -change if direction == "higher" else change


def check_trend(fresh: dict, baseline: dict, tolerance: float = TOLERANCE):
    """Return ``(failures, report_lines)`` for a fresh artifact."""
    failures = []
    lines = []
    gates = baseline.get("gates", {})
    if not gates:
        failures.append("baseline defines no gates")
    for key in sorted(gates):
        gate = gates[key]
        direction, pinned = gate["direction"], gate["value"]
        if key not in fresh:
            failures.append(f"{key}: missing from fresh artifact")
            continue
        value = fresh[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            failures.append(f"{key}: non-numeric value {value!r}")
            continue
        adverse = _adverse_change(direction, pinned, value)
        status = "ok" if adverse <= tolerance else "REGRESSION"
        lines.append(
            f"  {status:>10}  {key}: {value} vs baseline {pinned}"
            f" ({direction} is better, adverse {adverse:+.1%})"
        )
        if adverse > tolerance:
            failures.append(
                f"{key}: {value} regressed >{tolerance:.0%} vs"
                f" baseline {pinned} ({direction} is better)"
            )
    recorded = baseline.get("recorded", {})
    ungated = sorted(set(fresh) - set(gates))
    for key in ungated:
        if key in recorded:
            lines.append(f"    (ungated)  {key}: {fresh[key]}")
        else:
            # A fresh key the baseline has never seen: the bench grew a
            # measurement after the baseline was cut.  Warn instead of
            # passing silently — the next intentional baseline refresh
            # should fold it in (and gate it if it is scale-free).
            lines.append(
                f"   WARNING    {key}: {fresh[key]}"
                " (absent from baseline; refresh the baseline to track it)"
            )
    return failures, lines


def main(argv) -> int:
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__)
        return 2
    fresh_path = argv[1]
    baseline_path = (
        argv[2]
        if len(argv) == 3
        else os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "baselines",
            os.path.basename(fresh_path),
        )
    )
    with open(fresh_path) as handle:
        fresh = json.load(handle)
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures, lines = check_trend(fresh, baseline)
    print(f"trend check: {fresh_path} vs {baseline_path}")
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("trend check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
