"""Benchmark harness: regenerates every table and figure of the paper.

- ``python -m repro.bench.table1``   — Table I (runtime / states / RAM)
- ``python -m repro.bench.figure10`` — Figure 10 (growth curves, 25/49/100)

``pytest benchmarks/ --benchmark-only`` runs the same experiments (plus the
complexity, limitation, explosion, partition and ablation studies) under
pytest-benchmark timing.  ``SDE_FULL=1`` switches to the paper's full-scale
parameters.
"""

# NB: table1/figure10 are deliberately not imported here — they are
# `python -m` entry points, and importing them from the package would make
# runpy re-execute an already-imported module (RuntimeWarning).
from .report import log_sparkline, render_series, render_table1, series_csv  # noqa: F401
from .runner import full_scale, run_algorithms  # noqa: F401
