"""Regression pins for the headline experiment numbers.

Every generator and oracle is deterministic per seed, so the benchmark
tables are exactly reproducible.  These tests pin the values recorded
in EXPERIMENTS.md; if a calibration constant, generator, or model
changes them, the failure points straight at the numbers that need
re-recording.

(Loose tolerances are deliberate: these are drift alarms, not physics.)
"""

import pytest

from repro.core.config import EstimatorConfig
from repro.core.full_custom import estimate_full_custom
from repro.core.standard_cell import estimate_standard_cell
from repro.technology.libraries import cmos_process, nmos_process
from repro.workloads.generators import counter_module, register_file_module
from repro.workloads.suites import table1_suite, table2_suite

PROCESS = nmos_process()

#: (experiment, estimated exact-area) pins for Table 1.
TABLE1_ESTIMATES = {
    1: 2435.0,
    2: 882.0,
    3: 2212.0,
    4: 2162.0,
    5: 3306.0,
}

#: (experiment, rows) -> estimated area pins for Table 2.
TABLE2_ESTIMATES = {
    (1, 3): 291_943.0,
    (1, 4): 262_279.0,
    (1, 5): 235_288.0,
    (2, 4): 268_995.0,
    (2, 6): 243_200.0,
}


class TestTable1Pins:
    def test_estimated_areas(self):
        for case in table1_suite():
            estimate = estimate_full_custom(case.module, PROCESS)
            assert estimate.area == pytest.approx(
                TABLE1_ESTIMATES[case.experiment], rel=0.01
            ), f"experiment {case.experiment} drifted"

    def test_suite_shape_pins(self):
        sizes = {
            case.experiment: (case.module.device_count,
                              case.module.net_count)
            for case in table1_suite()
        }
        assert sizes == {
            1: (27, 23),
            2: (14, 29),
            3: (24, 18),
            4: (24, 18),
            5: (35, 28),
        }


class TestTable2Pins:
    def test_estimated_areas(self):
        for case in table2_suite():
            for rows in case.row_counts:
                estimate = estimate_standard_cell(
                    case.module, PROCESS, EstimatorConfig(rows=rows)
                )
                assert estimate.area == pytest.approx(
                    TABLE2_ESTIMATES[(case.experiment, rows)], rel=0.01
                ), f"experiment {case.experiment} rows {rows} drifted"

    def test_suite_shape_pins(self):
        cases = table2_suite()
        assert (cases[0].module.device_count,
                cases[0].module.net_count) == (30, 36)
        assert (cases[1].module.device_count,
                cases[1].module.net_count) == (34, 55)


class TestProcessPins:
    """The calibration constants EXPERIMENTS.md numbers depend on."""

    def test_nmos_parameters(self):
        assert PROCESS.lambda_um == 2.5
        assert PROCESS.row_height == 40.0
        assert PROCESS.feedthrough_width == 7.0
        assert PROCESS.track_pitch == 7.0
        assert PROCESS.port_pitch == 8.0

    def test_transistor_geometry(self):
        assert PROCESS.device_type("nmos_enh").width == 7.0
        assert PROCESS.device_type("nmos_dep").width == 10.0
        heights = {
            PROCESS.device_type(n).height
            for n in ("nmos_enh", "nmos_dep", "nmos_pass")
        }
        assert heights == {9.0}


class TestHighFanoutPins:
    """Modules with a 512-pin clock net estimate on the default path
    (the row-spread kernel once overflowed a float intermediate here)."""

    @pytest.mark.parametrize("module, area", [
        (counter_module("c", 512), 334487640.0),
        (register_file_module("rf", 64, 8), 84478416.0),
    ], ids=["counter-512", "register-file-64x8"])
    def test_standard_cell_area(self, module, area):
        assert estimate_standard_cell(module, cmos_process()).area == area
