"""Property test for the shape fingerprint the rescue lane seeds from.

Renaming every process and channel of an application (consistently) leaves
its shape fingerprint unchanged, so identically-shaped applications draw
identical rescue seeds.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appmodel.library import ImplementationLibrary
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.graph import KPNGraph
from repro.spatialmapper.rescue import shape_fingerprint
from repro.workloads.synthetic import SyntheticConfig, generate_application


class TestShapeFingerprintStability:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        stages=st.integers(min_value=1, max_value=5),
        branches=st.integers(min_value=1, max_value=3),
        suffix=st.sampled_from(["_x", "_longer_suffix", "2"]),
        prefix=st.sampled_from(["", "zz_"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_invariant_under_consistent_renaming(
        self, seed, stages, branches, suffix, prefix
    ):
        config = SyntheticConfig(stages=stages, parallel_branches=branches)
        app = generate_application(seed, config, name=f"app{seed}")
        mapping = {
            p.name: f"{prefix}{p.name}{suffix}" for p in app.als.kpn.processes
        }
        kpn = KPNGraph(f"renamed{seed}")
        for process in app.als.kpn.processes:
            kpn.add_process(dataclasses.replace(process, name=mapping[process.name]))
        for channel in app.als.kpn.channels:
            kpn.add_channel(
                dataclasses.replace(
                    channel,
                    name=f"{prefix}{channel.name}{suffix}",
                    source=mapping[channel.source],
                    target=mapping[channel.target],
                )
            )
        library = ImplementationLibrary(
            dataclasses.replace(
                implementation, process=mapping[implementation.process], name=""
            )
            for implementation in app.library.implementations()
        )
        renamed = ApplicationLevelSpec(kpn=kpn, qos=app.als.qos, name=f"renamed{seed}")
        assert shape_fingerprint(app.als, app.library) == shape_fingerprint(
            renamed, library
        )


