"""Compiled estimation plans: bit-identical to the direct estimator.

The contract under test is exact equality — ``EstimationPlan.evaluate``
must reproduce :func:`estimate_standard_cell_from_stats` **field for
field**, for any histogram, any row count, and every combination of
row-spread mode and feed-through model.  A Hypothesis sweep over random
net-size histograms enforces it, and the shared Stirling triangle is
checked against the independent ``surjection_count_recurrence`` oracle.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EstimatorConfig
from repro.core.probability import surjection_count, surjection_count_recurrence
from repro.core.standard_cell import estimate_standard_cell_from_stats
from repro.errors import EstimationError
from repro.netlist.stats import ModuleStatistics
from repro.obs.trace import Tracer, use_tracer
from repro.perf.kernels import clear_kernel_caches, surjection_triangle_stats
from repro.perf.plan import (
    clear_plan_cache,
    compile_plan,
    get_plan,
    plan_cache_stats,
)
from repro.technology.libraries import nmos_process


def stats_from_histogram(histogram, devices=64, ports=6):
    """A synthetic ModuleStatistics around a given (D, y_D) histogram."""
    net_count = sum(y for _, y in histogram)
    return ModuleStatistics(
        module_name="hypo",
        device_count=devices,
        net_count=net_count,
        port_count=ports,
        width_histogram=((7.0, devices),),
        net_size_histogram=tuple(histogram),
        average_width=7.0,
        average_height=18.0,
        total_device_area=7.0 * 18.0 * devices,
        total_port_width=8.0 * ports,
        max_net_size=max((d for d, _ in histogram), default=0),
    )


histograms = st.dictionaries(
    keys=st.integers(min_value=1, max_value=25),
    values=st.integers(min_value=1, max_value=5),
    min_size=1,
    max_size=8,
).map(lambda d: tuple(sorted(d.items())))


class TestPlanBitIdentity:
    @settings(max_examples=120, deadline=None)
    @given(
        histogram=histograms,
        rows=st.integers(min_value=1, max_value=64),
        feedthrough_model=st.sampled_from(("two-component", "general")),
    )
    def test_plan_matches_direct_estimator(
        self, histogram, rows, feedthrough_model
    ):
        process = nmos_process()
        stats = stats_from_histogram(histogram)
        config = EstimatorConfig(feedthrough_model=feedthrough_model)
        direct = estimate_standard_cell_from_stats(
            stats, process, config.with_rows(rows)
        )
        planned = compile_plan(stats, process, config).evaluate(rows)
        assert planned == direct  # dataclass equality: every field

    @settings(max_examples=30, deadline=None)
    @given(histogram=histograms)
    def test_plan_matches_with_chosen_rows(self, histogram):
        """rows=None runs the Section 5 algorithm on both paths."""
        process = nmos_process()
        stats = stats_from_histogram(histogram)
        direct = estimate_standard_cell_from_stats(stats, process)
        planned = compile_plan(
            stats, process, EstimatorConfig()
        ).evaluate(None)
        assert planned == direct

    def test_shared_track_model_matches(self, nmos):
        histogram = ((2, 5), (3, 4), (6, 2), (11, 1))
        stats = stats_from_histogram(histogram)
        config = EstimatorConfig(track_model="shared")
        for rows in (1, 2, 3, 5, 9):
            direct = estimate_standard_cell_from_stats(
                stats, nmos, config.with_rows(rows)
            )
            planned = compile_plan(stats, nmos, config).evaluate(rows)
            assert planned == direct


class TestSharedTriangle:
    @settings(max_examples=60, deadline=None)
    @given(
        components=st.integers(min_value=1, max_value=40),
        rows=st.integers(min_value=1, max_value=40),
    )
    def test_triangle_matches_recurrence_oracle(self, components, rows):
        assert surjection_count(components, rows) == (
            surjection_count_recurrence(components, rows)
        )

    def test_triangle_grows_monotonically(self):
        clear_kernel_caches()
        before = surjection_triangle_stats()
        assert before["cells"] == 0
        surjection_count(5, 3)
        mid = surjection_triangle_stats()
        assert mid["depth"] >= 5 and mid["limit"] >= 3
        # A smaller query re-reads the triangle without extending it.
        extensions = mid["extensions"]
        surjection_count(4, 2)
        after = surjection_triangle_stats()
        assert after["extensions"] == extensions
        assert after["cells"] == mid["cells"]


class TestPlanValidationAndCache:
    def test_compile_rejects_empty_module(self, nmos):
        stats = stats_from_histogram(((2, 1),), devices=0)
        with pytest.raises(EstimationError, match="empty module"):
            compile_plan(stats, nmos, EstimatorConfig())

    def test_evaluate_rejects_bad_rows(self, nmos):
        plan = compile_plan(
            stats_from_histogram(((2, 3),)), nmos, EstimatorConfig()
        )
        with pytest.raises(EstimationError, match="row count"):
            plan.evaluate(0)

    def test_get_plan_caches_per_config_family(self, nmos):
        clear_plan_cache()
        stats = stats_from_histogram(((2, 3), (4, 1)))
        first = get_plan(stats, nmos, EstimatorConfig(rows=2))
        # Same family: only the row count differs, which is not plan
        # state, so the compiled plan is reused.
        second = get_plan(stats, nmos, EstimatorConfig(rows=7))
        assert second is first
        other = get_plan(
            stats, nmos, EstimatorConfig(feedthrough_model="general")
        )
        assert other is not first
        counters = plan_cache_stats()
        assert counters["compilations"] == 2
        assert counters["hits"] == 1
        assert counters["entries"] == 2
        clear_plan_cache()
        assert plan_cache_stats()["entries"] == 0

    def test_plans_are_picklable(self, nmos):
        plan = compile_plan(
            stats_from_histogram(((2, 3), (5, 2))), nmos, EstimatorConfig()
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.evaluate(4) == plan.evaluate(4)


class TestPlanTracing:
    def test_traced_evaluate_matches_direct_counters(self, nmos):
        stats = stats_from_histogram(((2, 4), (5, 2)))
        config = EstimatorConfig(rows=4)

        direct_tracer = Tracer()
        with use_tracer(direct_tracer):
            estimate_standard_cell_from_stats(stats, nmos, config)

        plan = compile_plan(stats, nmos, config)
        plan_tracer = Tracer()
        with use_tracer(plan_tracer):
            plan.evaluate(4)

        assert (
            plan_tracer.metrics.counters()
            == direct_tracer.metrics.counters()
        )

    def test_low_row_feedthrough_span_reports_payload(self, nmos):
        """rows < 3: the direct path's feed-through span still carries
        its mean/feedthroughs payload (regression: the early return
        used to skip it)."""
        stats = stats_from_histogram(((2, 4), (5, 2)))
        tracer = Tracer()
        with use_tracer(tracer):
            estimate_standard_cell_from_stats(
                stats, nmos, EstimatorConfig(rows=2)
            )
        spans = [
            r for r in tracer.records() if r["name"] == "sc.feedthroughs"
        ]
        assert len(spans) == 1
        assert spans[0]["payload"]["mean"] == 0.0
        assert spans[0]["payload"]["feedthroughs"] == 0
