"""Section 4.5 — runtime and memory footprint of the spatial mapper.

The paper reports that running the HiperLAN/2 example through the mapper on
an ARM926 at 100 MHz took less than 4 ms with a peak data-memory usage of
110 kB (compiled C).  This reproduction is interpreted Python on a host CPU,
so absolute numbers differ; the benchmark records the measured runtime and
peak memory so EXPERIMENTS.md can report paper-versus-measured, and asserts
the qualitative claim: the mapping decision is made in interactive time
(well below a second), i.e. cheap enough to run whenever an application
starts.  The traced peak of one map is held under a ceiling, so the memory
half of the claim cannot regress silently.
"""

import tracemalloc

from repro.spatialmapper.mapper import SpatialMapper

#: Ceiling on the traced peak of one HiperLAN/2 map: the 25.9 kB measured
#: on Python 3.11.7 plus 10% (Python 3.12.1 and 3.13.0 measure lower).
PEAK_MEMORY_CEILING_KB = 28.5


def test_sec45_mapper_runtime_and_memory(benchmark, case_study, fast_config):
    als, platform, library = case_study
    mapper = SpatialMapper(platform, library, fast_config)

    result = benchmark(mapper.map, als)

    assert result.is_feasible
    # Qualitative reproduction of "< 4 ms on an ARM926": the Python mapper
    # still decides in far less than a second on the host.
    assert benchmark.stats.stats.min < 1.0

    tracemalloc.start()
    mapper.map(als)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    benchmark.extra_info["paper_runtime_ms"] = "< 4 (ARM926 @ 100 MHz, compiled C)"
    benchmark.extra_info["measured_runtime_ms"] = benchmark.stats.stats.min * 1e3
    benchmark.extra_info["paper_peak_memory_kb"] = 110
    benchmark.extra_info["measured_peak_memory_kb"] = round(peak_bytes / 1024, 1)
    assert peak_bytes / 1024 <= PEAK_MEMORY_CEILING_KB
