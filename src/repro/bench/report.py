"""Plain-text rendering of benchmark results.

The paper reports Table I (runtime / states / RAM per algorithm) and
Figure 10 (log-log growth curves).  Both render here as ASCII: the table
directly, the curves as downsampled log-scale series — adequate to read off
the orderings and crossovers the reproduction is judged on, with the raw
series available as CSV for external plotting.
"""

from __future__ import annotations

import math
from typing import List, Sequence, TextIO

from ..core.engine import RunReport
from ..core.stats import Sample

__all__ = [
    "log_sparkline",
    "memory_label",
    "render_series",
    "render_table1",
    "runtime_label",
    "series_csv",
]

_ALGO_LABELS = {
    "cob": "Copy On Branch (COB)",
    "cow": "Copy On Write (COW)",
    "sds": "Super DStates (SDS)",
}


def runtime_label(seconds: float) -> str:
    """Table I's runtime cell: ``19m:02s``, ``9h:39m`` or ``0.73s``."""
    if seconds >= 3600:
        return f"{int(seconds // 3600)}h:{int(seconds % 3600 // 60):02d}m"
    if seconds >= 60:
        return f"{int(seconds // 60)}m:{int(seconds % 60):02d}s"
    return f"{seconds:.2f}s"


def memory_label(accounted_bytes: int) -> str:
    """Table I's RAM cell: ``38.1 GB`` or ``3.4 MB``."""
    mb = accounted_bytes / 1e6
    if mb >= 1000:
        return f"{mb / 1000:.1f} GB"
    return f"{mb:.1f} MB"


def render_table1(reports: Sequence[RunReport], title: str) -> str:
    """Render reports in the shape of the paper's Table I.

    The RAM column is each run's *peak* accounted memory, as in the paper.
    """
    header = (
        f"{'State mapping algorithm':<26} {'Runtime':>12} {'States':>10}"
        f" {'RAM':>10}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for report in reports:
        runtime = runtime_label(report.runtime_seconds)
        if report.aborted:
            runtime += " (aborted)"
        memory = memory_label(report.peak_accounted_bytes())
        lines.append(
            f"{_ALGO_LABELS.get(report.algorithm, report.algorithm):<26}"
            f" {runtime:>12} {report.total_states:>10,} {memory:>10}"
        )
    lines.append("-" * len(header))
    return "\n".join(lines)


def _downsample(samples: Sequence[Sample], limit: int = 24) -> List[Sample]:
    if len(samples) <= limit:
        return list(samples)
    step = len(samples) / limit
    picked = [samples[int(i * step)] for i in range(limit)]
    if picked[-1] is not samples[-1]:
        picked.append(samples[-1])
    return picked


def log_sparkline(values: Sequence[int], width: int = 40) -> str:
    """A one-line log-scale sparkline for quick visual comparison."""
    blocks = " .:-=+*#%@"
    positives = [v for v in values if v > 0]
    if not positives:
        return " " * min(width, len(values))
    lo = math.log10(min(positives))
    hi = math.log10(max(positives))
    span = max(hi - lo, 1e-9)
    out = []
    for value in values[:width]:
        if value <= 0:
            out.append(" ")
            continue
        norm = (math.log10(value) - lo) / span
        out.append(blocks[min(int(norm * (len(blocks) - 1)), len(blocks) - 1)])
    return "".join(out)


def render_series(reports: Sequence[RunReport], metric: str, title: str) -> str:
    """Figure-10-style text rendering of a growth series.

    ``metric`` is 'states' or 'memory'.  Each algorithm gets a downsampled
    (wall-time, value) listing plus a log sparkline.
    """
    lines = [title, "=" * len(title)]
    for report in reports:
        samples = _downsample(report.samples)
        if metric == "states":
            values = [s.total_states for s in samples]
            unit = "states"
        else:
            values = [s.accounted_bytes // 1024 for s in samples]
            unit = "KiB"
        suffix = " [ABORTED]" if report.aborted else ""
        lines.append(
            f"{report.algorithm.upper():>4}{suffix}  "
            f"final={values[-1] if values else 0:,} {unit}"
        )
        lines.append(f"      |{log_sparkline([max(v, 1) for v in values])}|")
        pairs = ", ".join(
            f"{s.wall_seconds:.2f}s:{v:,}" for s, v in zip(samples, values)
        )
        lines.append(f"      {pairs}")
    return "\n".join(lines)


def series_csv(reports: Sequence[RunReport], stream: TextIO) -> None:
    """Write the full raw series (all algorithms) as CSV for replotting."""
    stream.write(
        "algorithm,wall_seconds,virtual_ms,events,states,accounted_bytes,"
        "rss_bytes,groups\n"
    )
    for report in reports:
        for sample in report.samples:
            stream.write(
                f"{report.algorithm},{sample.wall_seconds:.4f},"
                f"{sample.virtual_ms},{sample.events_executed},"
                f"{sample.total_states},{sample.accounted_bytes},"
                f"{sample.rss_bytes},{sample.groups}\n"
            )
