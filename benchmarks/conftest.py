"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, or runs one
of the three ``bench_ext_*`` experiments that compare the mapper with its
ablations, its scaling and a design-time mapping.  The run-time cost of the
mapper and the admission engine is measured by ``perfbench/``, not here.
The raw rows/series are attached to the pytest-benchmark ``extra_info`` so
they appear in the JSON output, and the qualitative claims of the paper (who
wins, what the cost trajectory looks like) are asserted so a regression in
the reproduction fails the benchmark run loudly rather than silently
producing different numbers.

The fixtures themselves live in the shared scenario harness
(``tests/harness.py``) so the test and benchmark suites build their
platforms, workloads and engines the same way.
"""

from __future__ import annotations

from tests.harness import case_study, fast_config  # noqa: F401  (shared fixtures)
