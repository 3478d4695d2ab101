"""Composite region scoring, shape fingerprints and the rejection memory."""

import dataclasses

import pytest

from repro.appmodel.library import ImplementationLibrary
from repro.exceptions import PlatformError
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.graph import KPNGraph
from repro.platform.state import LinkAllocation, PlatformState, ProcessAllocation
from repro.spatialmapper.desirability import tile_type_demands
from repro.spatialmapper.region_score import (
    RegionScorePolicy,
    RegionScorer,
    RejectionMemory,
    shape_fingerprint,
)
from tests.harness import (
    build_two_region_platform,
    make_app,
    make_manager,
    two_region_partition,
)


def renamed_copy(app, suffix="_renamed"):
    """The same application with every process (and channel) renamed."""
    mapping = {p.name: f"{p.name}{suffix}" for p in app.als.kpn.processes}
    kpn = KPNGraph(f"{app.als.kpn.name}{suffix}")
    for process in app.als.kpn.processes:
        kpn.add_process(dataclasses.replace(process, name=mapping[process.name]))
    for channel in app.als.kpn.channels:
        kpn.add_channel(
            dataclasses.replace(
                channel,
                name=f"{channel.name}{suffix}",
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
    als = ApplicationLevelSpec(kpn=kpn, qos=app.als.qos, name=f"{app.als.name}{suffix}")
    return als, library


class TestShapeFingerprint:
    def test_stable_under_renaming(self):
        app = make_app(7, "original", "io_l")
        als, library = renamed_copy(app)
        assert shape_fingerprint(app.als, app.library) == shape_fingerprint(als, library)

    def test_differs_for_different_shapes(self):
        left = make_app(7, "one", "io_l")
        right = make_app(8, "two", "io_l")
        assert shape_fingerprint(left.als, left.library) != shape_fingerprint(
            right.als, right.library
        )

    def test_sensitive_to_pinned_tile(self):
        left = make_app(7, "one", "io_l")
        right = make_app(7, "one", "io_r")
        assert shape_fingerprint(left.als, left.library) != shape_fingerprint(
            right.als, right.library
        )


class TestTileTypeDemands:
    def test_inflexible_process_is_exclusive_demand(self):
        app = make_app(3, "demand", "io_l")
        demands = tile_type_demands(app.als, app.library)
        # The harness config generates GPP-only implementations: every
        # mappable process is exclusive demand on GPP.
        assert demands == {"GPP": pytest.approx(len(app.als.kpn.mappable_processes()))}

    def test_flexible_process_dilutes(self, two_stage_als):
        from repro.appmodel.implementation import Implementation

        library = ImplementationLibrary(
            [
                Implementation("a", "GPP", [100.0]),
                Implementation("a", "DSP", [50.0]),
                Implementation("b", "GPP", [100.0]),
            ]
        )
        demands = tile_type_demands(two_stage_als, library)
        assert demands["GPP"] == pytest.approx(1.5)
        assert demands["DSP"] == pytest.approx(0.5)


class TestRejectionMemory:
    SHAPE = ("shape",)

    def test_record_and_penalty(self):
        memory = RejectionMemory(decay=0.5)
        assert memory.penalty("r0", self.SHAPE) == 0.0
        memory.record("r0", self.SHAPE)
        memory.record("r0", self.SHAPE)
        assert memory.penalty("r0", self.SHAPE) == pytest.approx(2.0)
        assert memory.penalty("r1", self.SHAPE) == 0.0

    def test_decay_and_pruning(self):
        memory = RejectionMemory(decay=0.5, min_weight=0.2)
        memory.record("r0", self.SHAPE)
        memory.tick()
        assert memory.penalty("r0", self.SHAPE) == pytest.approx(0.5)
        memory.tick()
        # 0.25 >= min_weight: still there; one more tick prunes.
        assert memory.penalty("r0", self.SHAPE) == pytest.approx(0.25)
        memory.tick()
        assert memory.penalty("r0", self.SHAPE) == 0.0
        assert len(memory) == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PlatformError):
            RejectionMemory(decay=1.0)
        with pytest.raises(PlatformError):
            RejectionMemory(min_weight=0.0)
        with pytest.raises(PlatformError):
            RejectionMemory().record("r0", self.SHAPE, weight=0.0)

    def test_transaction_rollback_restores_bit_identically(self):
        memory = RejectionMemory(decay=0.5)
        memory.record("r0", self.SHAPE)
        memory.tick()
        before = memory.fingerprint()
        with pytest.raises(RuntimeError):
            with memory.transaction():
                memory.record("r0", self.SHAPE)
                memory.record("r1", ("other",))
                memory.tick()
                memory.tick()
                raise RuntimeError("abort")
        assert memory.fingerprint() == before
        assert memory.penalty("r1", ("other",)) == 0.0

    def test_nested_commit_folds_into_aborted_outer(self):
        memory = RejectionMemory(decay=0.5)
        before = memory.fingerprint()
        with pytest.raises(RuntimeError):
            with memory.transaction():
                with memory.transaction():
                    memory.record("r0", self.SHAPE)
                    memory.tick()
                # Inner committed; outer abort must still undo it.
                raise RuntimeError("abort")
        assert memory.fingerprint() == before

    def test_committed_transaction_keeps_updates(self):
        memory = RejectionMemory(decay=0.5)
        with memory.transaction():
            memory.record("r0", self.SHAPE)
        assert memory.penalty("r0", self.SHAPE) == pytest.approx(1.0)

    def test_nested_rollback_spares_outer_updates(self):
        memory = RejectionMemory(decay=0.5)
        with memory.transaction():
            memory.record("r0", self.SHAPE)
            with memory.transaction() as inner:
                memory.record("r1", ("other",))
                memory.tick()
                inner.rollback()
        assert memory.penalty("r0", self.SHAPE) == pytest.approx(1.0)
        assert memory.penalty("r1", ("other",)) == 0.0

    def test_double_close_is_guarded(self):
        memory = RejectionMemory(decay=0.5)
        with memory.transaction() as txn:
            memory.record("r0", self.SHAPE)
            txn.rollback()
            with pytest.raises(PlatformError):
                txn.commit()
            txn.rollback()  # idempotent
        assert memory.penalty("r0", self.SHAPE) == 0.0


def occupy_slot(state, platform, tile_name):
    """Burn one process slot on a tile (bookkeeping-only occupant)."""
    state.allocate_process(
        ProcessAllocation(application="filler", process=f"f_{tile_name}", tile=tile_name)
    )


class TestRegionScorer:
    def test_fill_only_policy_equals_fill_level(self):
        platform = build_two_region_platform()
        partition = two_region_partition(platform)
        state = PlatformState(platform)
        app = make_app(11, "probe", "io_l")
        scorer = RegionScorer(RegionScorePolicy.fill_only())
        for region in partition:
            assert scorer.score(app.als, app.library, region, state) == pytest.approx(
                region.view(state).fill_level()
            )

    def test_residual_scarcity_prefers_free_tile_type(self):
        platform = build_two_region_platform()
        partition = two_region_partition(platform)
        state = PlatformState(platform)
        # Left region: 2 of 3 GPP hosts burn a slot each (scarce); right free.
        occupy_slot(state, platform, "gpp_l0")
        occupy_slot(state, platform, "gpp_l1")
        app = make_app(11, "probe", "io_l")
        scorer = RegionScorer(
            RegionScorePolicy(
                fill_weight=0.0, residual_weight=1.0, pressure_weight=0.0
            )
        )
        left = scorer.score(app.als, app.library, partition.region("r0_0"), state)
        right = scorer.score(app.als, app.library, partition.region("r1_0"), state)
        assert left > right > 0.0

    def test_routing_pressure_prefers_link_headroom(self):
        platform = build_two_region_platform()
        partition = two_region_partition(platform)
        state = PlatformState(platform)
        left_region = partition.region("r0_0")
        for link_name in left_region.link_names:
            state.allocate_link(
                LinkAllocation(
                    application="filler",
                    channel=f"c_{link_name}",
                    link=link_name,
                    bits_per_s=3e9,
                )
            )
        app = make_app(11, "probe", "io_l")
        scorer = RegionScorer(
            RegionScorePolicy(
                fill_weight=0.0, residual_weight=0.0, pressure_weight=1.0
            )
        )
        left = scorer.score(app.als, app.library, left_region, state)
        right = scorer.score(app.als, app.library, partition.region("r1_0"), state)
        assert left > right > 0.0

    def test_feedback_penalty_demotes_and_excludes(self):
        scorer = RegionScorer.adaptive(
            RegionScorePolicy(
                fill_weight=1.0,
                residual_weight=0.0,
                pressure_weight=0.0,
                feedback_weight=1.0,
                exclude_threshold=3.0,
            )
        )
        platform = build_two_region_platform()
        partition = two_region_partition(platform)
        state = PlatformState(platform)
        app = make_app(11, "probe", "io_l")
        shape = scorer.shape_of(app.als, app.library)
        baseline = scorer.score(
            app.als, app.library, partition.region("r0_0"), state, shape=shape
        )
        scorer.feedback.record("r0_0", shape)
        demoted = scorer.score(
            app.als, app.library, partition.region("r0_0"), state, shape=shape
        )
        assert demoted == pytest.approx(baseline + 1.0)
        assert not scorer.excludes("r0_0", shape)
        scorer.feedback.record("r0_0", shape, weight=2.5)
        assert scorer.excludes("r0_0", shape)
        assert not scorer.excludes("r1_0", shape)


class TestPipelineIntegration:
    def test_excluded_region_is_skipped_by_candidate_regions(self):
        scorer = RegionScorer.adaptive(
            RegionScorePolicy(exclude_threshold=1.0)
        )
        manager = make_manager(region_scorer=scorer)
        app = make_app(21, "excluded", "io_l")
        # io_l pins the app into r0_0; a recorded rejection past the
        # threshold must drop r0_0, leaving only the global fallback.
        shape = scorer.shape_of(app.als, app.library)
        with_feedback = manager.pipeline.candidate_regions(app.als, app.library)
        assert [r.name for r in with_feedback if r is not None] == ["r0_0"]
        scorer.feedback.record("r0_0", shape, weight=2.0)
        candidates = manager.pipeline.candidate_regions(app.als, app.library)
        assert [r for r in candidates if r is not None] == []
        assert candidates[-1] is None  # the global fallback survives

    def test_rejection_feedback_recorded_at_finalisation(self):
        scorer = RegionScorer.adaptive()
        manager = make_manager(region_scorer=scorer)
        # Saturate the left region's internal links: the region still
        # *qualifies* (slots and tile types are free), but routing the
        # pinned-I/O channels must fail — an in-region mapping failure, the
        # signal the rejection memory records.
        left_region = manager.partition.region("r0_0")
        for link_name in left_region.link_names:
            manager.state.allocate_link(
                LinkAllocation(
                    application="hog",
                    channel=f"c_{link_name}",
                    link=link_name,
                    bits_per_s=4e9 - 1.0,
                )
            )
        straggler = make_app(40, "straggler", "io_l")
        decision = manager.admit(straggler.als, library=straggler.library)
        assert not decision.admitted
        assert "r0_0" in decision.attempted_regions
        assert decision.shape is not None
        for region_name in decision.attempted_regions:
            assert scorer.feedback.penalty(region_name, decision.shape) > 0.0

    def test_all_or_nothing_rollback_erases_feedback(self):
        scorer = RegionScorer.adaptive()
        manager = make_manager(region_scorer=scorer)
        before = scorer.feedback.fingerprint()
        ok = make_app(50, "ok", "io_l")
        hopeless = [make_app(51 + i, f"nope{i}", "io_l") for i in range(6)]
        outcome = manager.start_many(
            [(app.als, app.library) for app in (ok, *hopeless)], all_or_nothing=True
        )
        assert outcome.rejected, "batch was expected to overflow the platform"
        assert scorer.feedback.fingerprint() == before
