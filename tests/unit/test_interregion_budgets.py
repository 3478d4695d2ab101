"""Corridor budgets: inventory, reservation accounting, journaled rollback."""

import pytest

from repro.exceptions import PlatformError
from repro.interregion.budgets import CorridorBudgets
from repro.platform.regions import RegionPartition
from repro.workloads.synthetic import generate_region_mesh


@pytest.fixture()
def partition():
    """A 8x8 mesh split into 2x2 regions of span 4."""
    platform = generate_region_mesh(2, 4)
    return RegionPartition.grid(platform, 2, 2)


@pytest.fixture()
def budgets(partition):
    return CorridorBudgets(partition, fraction=0.5)


class TestInventory:
    def test_pairs_cover_every_cross_link_both_directions(self, partition, budgets):
        inventoried = {
            name for pair in budgets.pairs() for name in budgets.links_between(*pair)
        }
        assert inventoried == set(partition.cross_link_names())

    def test_pairs_are_ordered_and_adjacent_only(self, budgets):
        pairs = budgets.pairs()
        # 2x2 grid: each region touches its two edge-neighbours, both ways.
        assert len(pairs) == 8
        assert ("r0_0", "r0_1") in pairs and ("r0_1", "r0_0") in pairs
        assert ("r0_0", "r1_1") not in pairs  # diagonal: no shared boundary

    def test_capacity_is_fraction_of_boundary_capacity(self, partition, budgets):
        noc = partition.platform.noc
        for pair in budgets.pairs():
            raw = sum(
                noc.link_by_name(name).capacity_bits_per_s
                for name in budgets.links_between(*pair)
            )
            assert budgets.capacity_bits_per_s(*pair) == pytest.approx(0.5 * raw)

    def test_invalid_fraction_rejected(self, partition):
        with pytest.raises(PlatformError):
            CorridorBudgets(partition, fraction=0.0)
        with pytest.raises(PlatformError):
            CorridorBudgets(partition, fraction=1.5)


class TestReservations:
    def test_reserve_and_release_roundtrip(self, budgets):
        empty = budgets.fingerprint()
        budgets.reserve("app", "r0_0", "r0_1", 1e9)
        budgets.reserve("app", "r0_1", "r1_1", 2e9)
        assert budgets.reserved_bits_per_s("r0_0", "r0_1") == pytest.approx(1e9)
        assert budgets.residual_bits_per_s("r0_1", "r1_1") == pytest.approx(
            budgets.capacity_bits_per_s("r0_1", "r1_1") - 2e9
        )
        assert budgets.applications() == ("app",)
        assert budgets.release_application("app") == pytest.approx(3e9)
        assert budgets.fingerprint() == empty
        assert budgets.release_application("app") == 0.0

    def test_over_budget_reservation_raises(self, budgets):
        capacity = budgets.capacity_bits_per_s("r0_0", "r0_1")
        budgets.reserve("a", "r0_0", "r0_1", capacity)
        with pytest.raises(PlatformError, match="corridor budget"):
            budgets.reserve("b", "r0_0", "r0_1", 1.0)

    def test_unknown_pair_raises(self, budgets):
        with pytest.raises(PlatformError, match="no boundary links"):
            budgets.reserve("a", "r0_0", "r1_1", 1.0)

    def test_negative_reservation_raises(self, budgets):
        with pytest.raises(PlatformError):
            budgets.reserve("a", "r0_0", "r0_1", -1.0)

    def test_pressure_tracks_use(self, budgets):
        assert budgets.pressure("r0_0", "r0_1") == 0.0
        budgets.reserve("a", "r0_0", "r0_1", budgets.capacity_bits_per_s("r0_0", "r0_1"))
        assert budgets.pressure("r0_0", "r0_1") == pytest.approx(1.0)
        assert budgets.pressure("r0_0", "r1_1") == 1.0  # no links: saturated by definition


class TestTransactions:
    def test_rollback_restores_bit_identically(self, budgets):
        budgets.reserve("keep", "r0_0", "r0_1", 5e8)
        before = budgets.fingerprint()
        with budgets.transaction() as txn:
            budgets.reserve("tentative", "r0_0", "r0_1", 1e9)
            budgets.reserve("tentative", "r1_0", "r0_0", 2e9)
            budgets.release_application("keep")
            txn.rollback()
        assert budgets.fingerprint() == before

    def test_exception_rolls_back(self, budgets):
        before = budgets.fingerprint()
        with pytest.raises(RuntimeError):
            with budgets.transaction():
                budgets.reserve("x", "r0_0", "r0_1", 1e9)
                raise RuntimeError("boom")
        assert budgets.fingerprint() == before

    def test_commit_keeps_reservations(self, budgets):
        with budgets.transaction():
            budgets.reserve("x", "r0_0", "r0_1", 1e9)
        assert budgets.reserved_bits_per_s("r0_0", "r0_1") == pytest.approx(1e9)

    def test_nested_commit_folds_into_outer_rollback(self, budgets):
        before = budgets.fingerprint()
        with budgets.transaction() as outer:
            with budgets.transaction():
                budgets.reserve("inner", "r0_0", "r0_1", 1e9)
            # The inner commit folded into the outer journal...
            assert budgets.reserved_bits_per_s("r0_0", "r0_1") == pytest.approx(1e9)
            outer.rollback()
        # ...so the outer rollback undoes it as well.
        assert budgets.fingerprint() == before

    def test_double_close_is_guarded(self, budgets):
        with budgets.transaction() as txn:
            budgets.reserve("x", "r0_0", "r0_1", 1e9)
            txn.rollback()
            with pytest.raises(PlatformError):
                txn.commit()
            txn.rollback()  # idempotent

    def test_nested_rollback_spares_outer_reservations(self, budgets):
        with budgets.transaction():
            budgets.reserve("outer", "r0_0", "r0_1", 5e8)
            with budgets.transaction() as inner:
                budgets.reserve("inner", "r0_0", "r0_1", 1e9)
                budgets.reserve("inner", "r1_0", "r0_0", 2e9)
                inner.rollback()
        assert budgets.reserved_bits_per_s("r0_0", "r0_1") == pytest.approx(5e8)
        assert budgets.reserved_bits_per_s("r1_0", "r0_0") == 0.0
        assert budgets.applications() == ("outer",)

    def test_sequential_scopes_keep_independent_journals(self, budgets):
        with budgets.transaction():
            budgets.reserve("first", "r0_0", "r0_1", 5e8)
        after_first = budgets.fingerprint()
        with budgets.transaction() as second:
            budgets.reserve("second", "r0_0", "r0_1", 1e9)
            second.rollback()
        # The second rollback undoes only its own claim, never the
        # committed first scope's.
        assert budgets.fingerprint() == after_first
