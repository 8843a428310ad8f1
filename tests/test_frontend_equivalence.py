"""Frontend-ingested modules through every execution path.

Satellite of the BLIF frontend: a module that arrives via
``parse_blif`` must be bit-identical through the plan, the incremental
engine, and the HTTP service — the same
equivalence battery the generated corpus rides — and the registered
``blif`` corpus family must rebuild fixtures deterministically inside
``mae verify`` sweeps.
"""

from __future__ import annotations

import pytest

from repro.core.estimator import ModuleAreaEstimator
from repro.frontend.blif import parse_blif
from repro.frontend.calibrate import fixture_blifs
from repro.verify.checks import (
    check_caches_identity,
    check_incremental_equivalence,
    check_plan_vs_direct,
    check_serve_equivalence,
    check_trace_identity,
)
from repro.verify.corpus import CaseSpec, draw_corpus, family_names

FIXTURES = fixture_blifs()


def _module_snapshot(module):
    return (
        module.name,
        tuple((p.name, p.direction, p.net) for p in module.ports),
        tuple(
            (d.name, d.cell, tuple(sorted(d.pins.items())))
            for d in module.devices
        ),
        tuple(sorted(n.name for n in module.nets)),
    )


class TestCorpusFamily:
    def test_blif_family_is_registered_standard_cell(self):
        assert "blif" in family_names()
        spec = CaseSpec.make("blif", 7, {"fixture": 2})
        assert spec.methodology == "standard-cell"

    def test_specs_rebuild_bit_identically(self):
        """spec.build() is deterministic and equals a direct parse of
        the fixture (modulo the corpus label)."""
        for index, path in enumerate(FIXTURES):
            spec = CaseSpec.make("blif", 31, {"fixture": index})
            first = spec.build()
            second = spec.build()
            assert _module_snapshot(first) == _module_snapshot(second)
            direct = parse_blif(path.read_text(), str(path))
            direct.name = spec.label
            assert _module_snapshot(direct) == _module_snapshot(first)

    def test_fixture_index_wraps(self):
        spec = CaseSpec.make(
            "blif", 0, {"fixture": len(FIXTURES) + 1}
        )
        wrapped = CaseSpec.make("blif", 0, {"fixture": 1})
        built = spec.build()
        built.name = wrapped.label
        assert _module_snapshot(built) == \
            _module_snapshot(wrapped.build())

    def test_corpus_draws_include_blif_cases(self):
        specs = draw_corpus(2 * len(family_names()), base_seed=0)
        blif_specs = [s for s in specs if s.family == "blif"]
        assert len(blif_specs) == 2
        for spec in blif_specs:
            assert spec.build().device_count >= 1


class TestExecutionPaths:
    """The full equivalence battery over every golden fixture."""

    @pytest.fixture(
        scope="class", params=range(len(FIXTURES)),
        ids=[p.stem for p in FIXTURES],
    )
    def module(self, request):
        path = FIXTURES[request.param]
        return parse_blif(path.read_text(), str(path))

    def test_plan_vs_direct(self, module, cmos):
        result = check_plan_vs_direct(module, cmos)
        assert result.passed, result.detail

    def test_caches_identity(self, module, cmos):
        result = check_caches_identity(module, cmos)
        assert result.passed, result.detail

    def test_trace_identity(self, module, cmos):
        result = check_trace_identity(module, cmos)
        assert result.passed, result.detail

    def test_incremental_equivalence(self, module, cmos):
        result = check_incremental_equivalence(module, cmos)
        assert result.passed, result.detail

    def test_serve_equivalence(self, module, cmos):
        result = check_serve_equivalence(module, cmos)
        assert result.passed, result.detail


class TestLoadSchematic:
    def test_blif_extension_routes_to_frontend(self, tmp_path, cmos):
        source = FIXTURES[0]
        target = tmp_path / "design.blif"
        target.write_text(source.read_text())
        loaded = ModuleAreaEstimator(cmos).load_schematic(str(target))
        direct = parse_blif(source.read_text(), str(source))
        # Filenames differ but must not leak into the module.
        assert _module_snapshot(loaded) == _module_snapshot(direct)

    def test_unknown_extension_mentions_blif(self, tmp_path, cmos):
        from repro.errors import EstimationError

        path = tmp_path / "design.edif"
        path.write_text("whatever")
        with pytest.raises(EstimationError, match="BLIF"):
            ModuleAreaEstimator(cmos).load_schematic(str(path))
