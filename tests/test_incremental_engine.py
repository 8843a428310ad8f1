"""Edge cases and failure modes of the incremental engine.

The Hypothesis suite (test_incremental_equivalence.py) establishes
bit-identity statistically; these tests pin the corners by hand: the
histogram transitions the ISSUE calls out (last multi-terminal net
removed, degree-1 nets left by a disconnect, merges that collapse two
nets into one histogram bin), rejection of empty modules, stale
statistics failing loudly, atomicity after rejected edits, the edits
file format, and the observability counters.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import EstimatorConfig
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.errors import (
    EstimationError,
    MutationError,
    NetlistError,
    StaleStatisticsError,
)
from repro.incremental import (
    AddDevice,
    ConnectTerminal,
    DisconnectTerminal,
    IncrementalEstimator,
    MergeNets,
    RemoveDevice,
    SplitNet,
    edit_distance,
    load_mutations,
    mutation_from_dict,
    mutations_from_jsonable,
    save_mutations,
)
from repro.netlist.builder import NetlistBuilder
from repro.obs.trace import Tracer, use_tracer
from repro.perf.plan import get_plan

_fields = dataclasses.astuple


def _nets(engine):
    """The net-degree histogram as a plain dict (stats store it as a
    sorted tuple of (D, count) pairs)."""
    return dict(engine.statistics().net_size_histogram)


def _chain(name="chain"):
    """inv1 -> inv2 -> inv3 through nets n1 (D=2) and n2 (D=2), plus a
    three-way net ``wide`` (D=3) touching every inverter."""
    return (
        NetlistBuilder(name)
        .inputs("a")
        .outputs("y")
        .gate("INV", "inv1", i="a", o="n1", w="wide")
        .gate("INV", "inv2", i="n1", o="n2", w="wide")
        .gate("INV", "inv3", i="n2", o="y", w="wide")
        .build()
    )


@pytest.fixture
def engine(cmos):
    return IncrementalEstimator(_chain(), cmos, EstimatorConfig())


def _assert_consistent(engine):
    """The universal postcondition: maintained stats == rescan, and the
    estimate equals a from-scratch estimate of the rescan."""
    fresh = engine.rescan()
    assert engine.statistics() == fresh
    direct = estimate_standard_cell_from_stats(
        fresh, engine.process, engine.config
    )
    assert _fields(engine.estimate()) == _fields(direct)


# ----------------------------------------------------------------------
# histogram edge cases
# ----------------------------------------------------------------------
class TestHistogramEdges:
    def test_removing_last_multi_terminal_net(self, cmos):
        """Disconnect both ends of the only D>=2 net: the histogram loses
        its last multi-terminal bin entirely."""
        module = (
            NetlistBuilder("two_inv")
            .inputs("a")
            .outputs("y")
            .gate("INV", "u1", i="a", o="mid")
            .gate("INV", "u2", i="mid", o="y")
            .build()
        )
        engine = IncrementalEstimator(module, cmos, EstimatorConfig())
        # a and y are port nets at D=1; mid is the one D=2 net.
        assert _nets(engine) == {1: 2, 2: 1}
        engine.apply(DisconnectTerminal("u2", "i"))
        assert _nets(engine) == {1: 3}
        assert engine.statistics().multi_component_nets == ()
        _assert_consistent(engine)
        engine.apply(DisconnectTerminal("u1", "o"))
        # The module drops the now-unconnected internal net entirely.
        assert _nets(engine) == {1: 2}
        assert not engine.module.has_net("mid")
        _assert_consistent(engine)

    def test_disconnect_leaves_degree_one_net(self, engine):
        """n1 connects inv1 and inv2; cutting one end must move the net
        from the D=2 bin to the D=1 bin, not drop it."""
        before = _nets(engine)
        engine.apply(DisconnectTerminal("inv2", "i"))
        after = _nets(engine)
        assert after[1] == before.get(1, 0) + 1
        assert after.get(2, 0) == before[2] - 1
        assert engine.module.has_net("n1")
        _assert_consistent(engine)

    def test_merge_collapses_two_nets_in_same_bin(self, engine):
        """n1 and n2 both sit in the D=2 bin; merging them must remove
        both entries and add one at the merged degree (inv2 touches
        both, so the merged net has 3 distinct devices)."""
        before = _nets(engine)
        assert before[2] == 2
        engine.apply(MergeNets("n1", "n2"))
        after = _nets(engine)
        assert after.get(2, 0) == 0
        assert after[3] == before.get(3, 0) + 1
        assert not engine.module.has_net("n2")
        _assert_consistent(engine)

    def test_merge_with_shared_device_counts_distinct_devices(self, engine):
        """Degree is distinct *devices*, not endpoints: inv2 is on both
        n1 and n2, so the merged net is D=3 even though it carries four
        pin endpoints."""
        engine.apply(MergeNets("n1", "n2"))
        merged = engine.module.net("n1")
        assert merged.pin_count == 4
        assert merged.component_count == 3
        _assert_consistent(engine)

    def test_split_then_merge_round_trips(self, engine):
        """Cutting endpoints onto a new net and shorting them back must
        land on the starting histogram."""
        start = _nets(engine)
        engine.apply(SplitNet("wide", "wide_b", (("inv3", "w"),)))
        assert _nets(engine) != start
        _assert_consistent(engine)
        engine.apply(MergeNets("wide", "wide_b"))
        assert _nets(engine) == start
        _assert_consistent(engine)

    def test_power_net_edits_do_not_touch_histogram(self, engine):
        """Connections to vdd/vss are filtered exactly like the scan."""
        start = engine.statistics()
        engine.apply(ConnectTerminal("inv1", "pwr", "vdd"))
        engine.apply(ConnectTerminal("inv2", "pwr", "VSS"))
        after = engine.statistics()
        assert after.net_size_histogram == start.net_size_histogram
        assert after.stats_version == start.stats_version + 2
        _assert_consistent(engine)

    def test_remove_device_updates_all_histograms(self, engine):
        before = engine.statistics()
        engine.apply(RemoveDevice("inv2"))
        after = engine.statistics()
        assert after.device_count == before.device_count - 1
        assert sum(x for _, x in after.width_histogram) == after.device_count
        assert after.total_device_area < before.total_device_area
        _assert_consistent(engine)

    def test_split_moving_all_endpoints_drops_source_net(self, engine):
        """n1 has exactly two endpoints and no port; moving both leaves
        the source empty, so the module (and the bookkeeping) drop it."""
        engine.apply(SplitNet(
            "n1", "n1_b", (("inv1", "o"), ("inv2", "i"))
        ))
        assert not engine.module.has_net("n1")
        assert engine.module.net("n1_b").component_count == 2
        _assert_consistent(engine)

    def test_add_device_with_explicit_dimensions(self, engine):
        engine.apply(AddDevice.make(
            "big", "MACRO", {"p0": "n1", "p1": "wide"},
            width_lambda=40.0, height_lambda=12.0,
        ))
        stats = engine.statistics()
        assert dict(stats.width_histogram)[40.0] == 1
        assert stats.total_device_area == pytest.approx(
            engine.rescan().total_device_area
        )
        _assert_consistent(engine)


# ----------------------------------------------------------------------
# rejection and atomicity
# ----------------------------------------------------------------------
class TestRejection:
    def test_empty_module_is_rejected(self, cmos):
        empty = NetlistBuilder("void").inputs("a").build(validate=False)
        engine = IncrementalEstimator(empty, cmos)
        with pytest.raises(EstimationError, match="empty module"):
            engine.estimate()

    def test_editing_down_to_empty_keeps_rejecting(self, cmos):
        module = (
            NetlistBuilder("solo").inputs("a")
            .gate("INV", "u1", i="a", o="x").build(validate=False)
        )
        engine = IncrementalEstimator(module, cmos)
        engine.estimate()
        engine.apply(RemoveDevice("u1"))
        assert engine.statistics().device_count == 0
        with pytest.raises(EstimationError, match="empty module"):
            engine.estimate()

    @pytest.mark.parametrize("bad", [
        RemoveDevice("ghost"),
        ConnectTerminal("ghost", "p0", "n1"),
        ConnectTerminal("inv1", "i", "n2"),       # pin already connected
        DisconnectTerminal("ghost", "p0"),
        DisconnectTerminal("inv1", "nope"),       # unknown pin
        MergeNets("n1", "ghost"),
        MergeNets("ghost", "n1"),
        MergeNets("n1", "n1"),                    # self-merge
        SplitNet("ghost", "new", (("inv1", "i"),)),
        SplitNet("n1", "n2", (("inv2", "i"),)),   # new name taken
        SplitNet("n1", "new", ()),                # nothing to move
        SplitNet("n1", "new", (("inv3", "i"),)),  # endpoint not on net
        AddDevice.make("inv1", "INV", {"i": "a"}),  # duplicate device
    ])
    def test_rejected_edit_is_atomic(self, engine, bad):
        """A rejected edit must leave module, bookkeeping, and revision
        exactly as before — verified against a rescan."""
        before = engine.statistics()
        with pytest.raises(NetlistError):
            engine.apply(bad)
        assert engine.stats_version == before.stats_version
        assert engine.statistics() == before
        _assert_consistent(engine)

    def test_batch_stops_at_first_bad_edit(self, engine):
        """Edits before the failure stick; the failing one and the rest
        do not."""
        batch = [
            DisconnectTerminal("inv2", "i"),
            RemoveDevice("ghost"),
            RemoveDevice("inv3"),
        ]
        with pytest.raises(NetlistError):
            engine.apply(batch)
        assert engine.stats_version == 1
        assert engine.module.has_device("inv3")
        assert "i" not in engine.module.device("inv2").pins
        _assert_consistent(engine)

    def test_unknown_mutation_type_rejected(self, engine):
        class Rogue:
            kind = "rogue"

        with pytest.raises(NetlistError, match="unsupported mutation"):
            engine.apply([Rogue()])  # type: ignore[list-item]


class TestStaleStatistics:
    def test_stale_snapshot_fails_loudly(self, engine, cmos):
        """A snapshot captured before an edit can never silently plan:
        get_plan checks the revision stamp."""
        stale = engine.statistics()
        engine.apply(DisconnectTerminal("inv2", "i"))
        with pytest.raises(StaleStatisticsError, match="revision"):
            get_plan(stale, cmos, engine.config,
                     expected_version=engine.stats_version)

    def test_current_snapshot_still_plans(self, engine, cmos):
        engine.apply(DisconnectTerminal("inv2", "i"))
        plan = get_plan(engine.statistics(), cmos, engine.config,
                        expected_version=engine.stats_version)
        assert plan.evaluate(engine.config.rows).area > 0


# ----------------------------------------------------------------------
# module isolation and copy semantics
# ----------------------------------------------------------------------
class TestCopySemantics:
    def test_caller_module_untouched_by_default(self, cmos):
        module = _chain()
        engine = IncrementalEstimator(module, cmos)
        engine.apply(RemoveDevice("inv3"))
        assert module.has_device("inv3")
        assert not engine.module.has_device("inv3")

    def test_adopted_module_is_mutated(self, cmos):
        module = _chain()
        engine = IncrementalEstimator(module, cmos, copy_module=False)
        engine.apply(RemoveDevice("inv3"))
        assert not module.has_device("inv3")
        assert engine.module is module


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_apply_and_rescan_avoided_counters(self, cmos):
        tracer = Tracer()
        with use_tracer(tracer):
            engine = IncrementalEstimator(_chain(), cmos)
            engine.estimate()
            engine.apply([
                DisconnectTerminal("inv2", "i"),
                ConnectTerminal("inv2", "i", "wide"),
            ])
            engine.estimate()
            engine.estimate()
        counters = tracer.metrics.counters()
        assert counters["incremental.apply"] == 2
        assert counters["incremental.rescan_avoided"] == 3
        names = [r["name"] for r in tracer.records()]
        assert "incremental.apply" in names
        assert "incremental.estimate" in names

    def test_plan_reuse_split(self, cmos):
        """An edit pair that cancels out reuses the compiled plan; a
        real histogram change invalidates it."""
        tracer = Tracer()
        with use_tracer(tracer):
            engine = IncrementalEstimator(_chain(), cmos)
            engine.estimate()                       # first plan: invalidated
            engine.apply(ConnectTerminal("inv1", "pwr", "vdd"))
            engine.estimate()                       # power edit: reused
            engine.apply(RemoveDevice("inv3"))
            engine.estimate()                       # real change: invalidated
        counters = tracer.metrics.counters()
        assert counters["incremental.plan_reused"] == 1
        assert counters["incremental.plan_invalidated"] == 2


# ----------------------------------------------------------------------
# edits file format
# ----------------------------------------------------------------------
class TestEditsFiles:
    EDITS = [
        AddDevice.make("u9", "NAND2", {"a": "n1", "b": "n2", "y": "n9"}),
        RemoveDevice("inv3"),
        ConnectTerminal("inv1", "x", "n9"),
        DisconnectTerminal("inv2", "i"),
        MergeNets("n1", "n9"),
        SplitNet("wide", "wide_b", (("inv1", "w"), ("inv2", "w"))),
    ]

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "edits.json"
        save_mutations(str(path), self.EDITS)
        assert load_mutations(str(path)) == self.EDITS
        document = json.loads(path.read_text())
        assert document["schema_version"] == 1
        assert [e["op"] for e in document["edits"]] == [
            "add_device", "remove_device", "connect", "disconnect",
            "merge_nets", "split_net",
        ]

    def test_pins_accept_mapping_form(self):
        decoded = mutation_from_dict({
            "op": "add_device", "name": "u1", "cell": "INV",
            "pins": {"i": "a", "o": "y"},
        })
        assert decoded == AddDevice.make("u1", "INV", {"i": "a", "o": "y"})

    def test_missing_file_raises_mutation_error(self, tmp_path):
        with pytest.raises(MutationError, match="cannot read"):
            load_mutations(str(tmp_path / "absent.json"))

    def test_non_json_file_raises_mutation_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(MutationError, match="not JSON"):
            load_mutations(str(path))

    @pytest.mark.parametrize("document, message", [
        ([], "JSON object"),
        ({"edits": []}, "schema_version"),
        ({"schema_version": 99, "edits": []}, "schema_version"),
        ({"schema_version": 1}, "'edits' list"),
        ({"schema_version": 1, "edits": [{"op": "teleport"}]},
         "unknown edit op"),
        ({"schema_version": 1, "edits": [{"op": "remove_device"}]},
         "missing field"),
        ({"schema_version": 1,
          "edits": [{"op": "remove_device", "name": "u1", "bogus": 1}]},
         "unexpected field"),
        ({"schema_version": 1,
          "edits": [{"op": "split_net", "net": "a", "new_net": "b",
                     "endpoints": [["x"]]}]},
         "pair"),
        ({"schema_version": 1,
          "edits": [{"op": "split_net", "net": "a", "new_net": "b",
                     "endpoints": 7}]},
         "list of"),
        ({"schema_version": 1, "edits": [42]}, "must be an object"),
    ])
    def test_malformed_documents_rejected(self, document, message):
        with pytest.raises(MutationError, match=message):
            mutations_from_jsonable(document)

    def test_edit_distance_census(self):
        census = edit_distance(self.EDITS + [RemoveDevice("x")])
        assert census == {
            "add_device": 1, "remove_device": 2, "connect": 1,
            "disconnect": 1, "merge_nets": 1, "split_net": 1,
        }
