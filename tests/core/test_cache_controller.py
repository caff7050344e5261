"""Unit tests for the Window-Aware Cache Controller (Sec. 4.2, Table 2)."""

from __future__ import annotations

import pytest

from repro.core.cache_controller import (
    CACHE_AVAILABLE,
    HDFS_AVAILABLE,
    NOT_AVAILABLE,
    WindowAwareCacheController,
)
from repro.core.cache_registry import REDUCE_INPUT, REDUCE_OUTPUT
from repro.core.panes import WindowSpec


@pytest.fixture
def controller() -> WindowAwareCacheController:
    return WindowAwareCacheController()


def binary_join_specs():
    spec = WindowSpec(win=1800.0, slide=1200.0)  # 3 panes/window, pane=600
    return {"S1": spec, "S2": spec}


class TestQueryRegistration:
    def test_register_returns_matrix(self, controller):
        matrix = controller.register_query("q1", binary_join_specs())
        assert matrix.sources == ("S1", "S2")
        assert controller.queries() == ["q1"]

    def test_duplicate_rejected(self, controller):
        controller.register_query("q1", binary_join_specs())
        with pytest.raises(ValueError):
            controller.register_query("q1", binary_join_specs())

    def test_unknown_query_access_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.matrix("ghost")

    def test_unregister_unknown_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.unregister_query("ghost")


class TestReadyBits:
    def test_lifecycle(self, controller):
        controller.register_query("q1", binary_join_specs())
        assert controller.pane_ready("S1P0") == NOT_AVAILABLE
        controller.pane_arrived("S1P0")
        assert controller.pane_ready("S1P0") == HDFS_AVAILABLE
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=3)
        assert controller.pane_ready("S1P0") == CACHE_AVAILABLE

    def test_arrival_never_downgrades(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=3)
        controller.pane_arrived("S1P0")
        assert controller.pane_ready("S1P0") == CACHE_AVAILABLE


class TestSignatures:
    def test_placement_tracking(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=3)
        controller.cache_created("S1P0", REDUCE_INPUT, 1, node_id=5)
        assert controller.placement("S1P0", REDUCE_INPUT, 0) == 3
        assert controller.placement("S1P0", REDUCE_INPUT, 1) == 5
        assert controller.placement("S1P0", REDUCE_INPUT, 2) is None
        assert controller.placement("S1P0", REDUCE_OUTPUT, 0) is None

    def test_paper_table2_fields(self, controller):
        """Signatures carry pid, node(s), type, and a per-query mask."""
        controller.register_query("q1", binary_join_specs())
        sig = controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=9)
        assert sig.pid == "S1P0"
        assert sig.cache_type == REDUCE_INPUT
        assert sig.nodes == {9}
        assert sig.done_query_mask == {"q1": False}

    def test_mask_bit_preset_for_unrelated_query(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.register_query(
            "q2", {"S9": WindowSpec(win=100.0, slide=50.0)}
        )
        sig = controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        # q2 never reads S1, so its bit starts set (paper Sec. 4.2).
        assert sig.done_query_mask == {"q1": False, "q2": True}

    def test_late_registration_updates_existing_masks(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        controller.register_query("q3", binary_join_specs())
        sig = controller.signature("S1P0", REDUCE_INPUT)
        assert sig.done_query_mask["q3"] is False


class TestExpirationFlow:
    def _complete_window1(self, controller):
        for i in range(3):
            for j in range(3):
                controller.record_reduce_done("q1", {"S1": i, "S2": j})

    def test_purge_notifications_after_expiry(self, controller):
        controller.register_query("q1", binary_join_specs())
        for i in range(2):
            controller.cache_created(f"S1P{i}", REDUCE_INPUT, 0, node_id=i)
            controller.cache_created(f"S2P{i}", REDUCE_INPUT, 0, node_id=i)
        self._complete_window1(controller)
        notifications = controller.advance_window("q1", recurrence=2)
        pids = {n.pid for n in notifications}
        # Panes 0 and 1 of both sources expired (window 2 = panes 2-4).
        assert pids == {"S1P0", "S1P1", "S2P0", "S2P1"}
        for n in notifications:
            assert n.node_ids  # addressed to the hosting nodes

    @pytest.mark.parametrize("first", [REDUCE_INPUT, REDUCE_OUTPUT])
    def test_notice_addresses_every_hosting_node(self, controller, first):
        # A pane's two cache types expire together on different nodes;
        # the one notice for the pid reaches both, whichever signature
        # was created first (a re-created one moves behind).
        second = REDUCE_OUTPUT if first == REDUCE_INPUT else REDUCE_INPUT
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P0", second, 0, node_id=9)
        controller.cache_lost("S1P0", second, 0)
        controller.cache_created("S1P0", first, 0, node_id=4)
        controller.cache_created("S1P0", second, 0, node_id=9)
        self._complete_window1(controller)
        notifications = controller.advance_window("q1", recurrence=2)
        assert [n.node_ids for n in notifications if n.pid == "S1P0"] == [(4, 9)]

    def test_no_notification_while_pane_live(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P2", REDUCE_INPUT, 0, node_id=1)
        self._complete_window1(controller)
        notifications = controller.advance_window("q1", recurrence=2)
        assert "S1P2" not in {n.pid for n in notifications}

    def test_combination_caches_expire_with_their_panes(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P0xS2P0", REDUCE_OUTPUT, 0, node_id=4)
        self._complete_window1(controller)
        notifications = controller.advance_window("q1", recurrence=2)
        assert "S1P0xS2P0" in {n.pid for n in notifications}

    def test_multi_query_cache_held_until_all_done(self, controller):
        specs = binary_join_specs()
        controller.register_query("q1", specs)
        controller.register_query("q2", specs)
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        self._complete_window1(controller)
        # Only q1 finished with pane 0: no purge yet.
        notifications = controller.advance_window("q1", recurrence=2)
        assert "S1P0" not in {n.pid for n in notifications}
        # q2 finishes too: purge fires.
        for i in range(3):
            for j in range(3):
                controller.record_reduce_done("q2", {"S1": i, "S2": j})
        notifications = controller.advance_window("q2", recurrence=2)
        assert "S1P0" in {n.pid for n in notifications}

    def test_rebuilt_cache_is_done_for_queries_past_its_pane(self, controller):
        # q1 shifts past S1P0, then the pane's cache is lost and rebuilt:
        # the new signature must not wait for q1 to finish with it again.
        specs = binary_join_specs()
        controller.register_query("q1", specs)
        controller.register_query("q2", specs)
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        self._complete_window1(controller)
        controller.advance_window("q1", recurrence=2)
        controller.cache_lost("S1P0", REDUCE_INPUT, 0)
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        for i in range(3):
            for j in range(3):
                controller.record_reduce_done("q2", {"S1": i, "S2": j})
        notifications = controller.advance_window("q2", recurrence=2)
        assert "S1P0" in {n.pid for n in notifications}
        mask = controller.signature("S1P0", REDUCE_INPUT).done_query_mask
        assert mask == {"q1": True, "q2": True}

    def test_unregister_releases_caches(self, controller):
        specs = binary_join_specs()
        controller.register_query("q1", specs)
        controller.register_query("q2", specs)
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        self._complete_window1(controller)
        controller.advance_window("q1", recurrence=2)  # q1 done with pane 0
        notifications = controller.unregister_query("q2")
        assert "S1P0" in {n.pid for n in notifications}


class TestFailureRollback:
    def test_cache_lost_reverts_ready_bit(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.pane_arrived("S1P0")
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        controller.cache_lost("S1P0", REDUCE_INPUT, 0)
        assert controller.pane_ready("S1P0") == HDFS_AVAILABLE
        assert controller.placement("S1P0", REDUCE_INPUT, 0) is None

    def test_partial_loss_keeps_cache_available(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=1)
        controller.cache_created("S1P0", REDUCE_INPUT, 1, node_id=2)
        controller.cache_lost("S1P0", REDUCE_INPUT, 0)
        assert controller.pane_ready("S1P0") == CACHE_AVAILABLE
        assert controller.placement("S1P0", REDUCE_INPUT, 1) == 2

    def test_node_lost_rolls_back_everything_hosted(self, controller):
        controller.register_query("q1", binary_join_specs())
        controller.cache_created("S1P0", REDUCE_INPUT, 0, node_id=7)
        controller.cache_created("S1P1", REDUCE_OUTPUT, 3, node_id=7)
        controller.cache_created("S2P0", REDUCE_INPUT, 0, node_id=8)
        lost = controller.node_lost(7)
        assert set(lost) == {
            ("S1P0", REDUCE_INPUT, 0),
            ("S1P1", REDUCE_OUTPUT, 3),
        }
        assert controller.placement("S2P0", REDUCE_INPUT, 0) == 8
