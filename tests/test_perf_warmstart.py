"""The on-disk kernel cache.

The failure mode that matters here is a corrupted cache file being
half loaded (state pollution): every malformed disk cache must raise
:class:`KernelCacheError` while leaving the live caches untouched.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import EstimatorConfig
from repro.errors import KernelCacheError
from repro.perf.bench import synthetic_sweep_modules
from repro.perf.diskcache import (
    DISK_SCHEMA_VERSION,
    ENV_VAR,
    load_kernel_caches,
    resolve_cache_path,
    save_kernel_caches,
)
from repro.perf.kernels import (
    clear_kernel_caches,
    kernel_cache_stats,
    snapshot_kernel_caches,
    surjection_triangle_stats,
)


def _warm_the_caches(nmos, modules=3):
    from repro.core.standard_cell import estimate_standard_cell

    for module in synthetic_sweep_modules(modules):
        for rows in (2, 3, 5):
            estimate_standard_cell(module, nmos, EstimatorConfig(rows=rows))


# ----------------------------------------------------------------------
# disk round trip
# ----------------------------------------------------------------------
class TestDiskRoundTrip:
    def test_save_load_restores_every_entry(self, nmos, tmp_path):
        clear_kernel_caches()
        _warm_the_caches(nmos)
        saved = snapshot_kernel_caches()
        path = save_kernel_caches(tmp_path / "kernels.json")

        clear_kernel_caches()
        assert all(s.entries == 0 for s in kernel_cache_stats().values())
        installed = load_kernel_caches(path)
        assert installed == sum(
            len(cache) for cache in saved["kernels"].values()
        )
        assert snapshot_kernel_caches()["kernels"] == saved["kernels"]
        assert (
            surjection_triangle_stats()["cells"]
            == len(saved["triangle"]["rows"]) * saved["triangle"]["limit"]
        )

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert load_kernel_caches(missing, missing_ok=True) == 0
        with pytest.raises(KernelCacheError):
            load_kernel_caches(missing)

    def test_resolve_cache_path(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_cache_path(None) is None
        assert resolve_cache_path("explicit.json").name == "explicit.json"
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "env.json"))
        assert resolve_cache_path(None) == tmp_path / "env.json"
        # The explicit path wins over the environment.
        assert resolve_cache_path("explicit.json").name == "explicit.json"


# ----------------------------------------------------------------------
# malformed files fail loudly and leave the caches untouched
# ----------------------------------------------------------------------
class TestRejection:
    @pytest.fixture()
    def good_payload(self, nmos, tmp_path):
        clear_kernel_caches()
        _warm_the_caches(nmos)
        path = save_kernel_caches(tmp_path / "kernels.json")
        payload = json.loads(path.read_text())
        clear_kernel_caches()
        return payload

    def _assert_rejected(self, tmp_path, payload, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        before = snapshot_kernel_caches()
        with pytest.raises(KernelCacheError, match=match):
            load_kernel_caches(path)
        # No half-load: the live caches are exactly as they were.
        assert snapshot_kernel_caches() == before

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(KernelCacheError, match="not valid JSON"):
            load_kernel_caches(path)

    def test_rejects_wrong_schema_version(self, tmp_path, good_payload):
        good_payload["schema_version"] = DISK_SCHEMA_VERSION + 1
        self._assert_rejected(tmp_path, good_payload, "schema_version")

    def test_rejects_unknown_kernel(self, tmp_path, good_payload):
        good_payload["kernels"]["no_such_kernel"] = []
        self._assert_rejected(tmp_path, good_payload, "unknown kernels")

    def test_rejects_wrong_key_arity(self, tmp_path, good_payload):
        good_payload["kernels"]["surjection_table"] = [[[1, 2, 3], [1]]]
        self._assert_rejected(tmp_path, good_payload, "wrong shape")

    def test_rejects_non_pair_entries(self, tmp_path, good_payload):
        good_payload["kernels"]["surjection_table"] = [[1, 2, 3]]
        self._assert_rejected(tmp_path, good_payload, "pair")

    def test_rejects_corrupt_triangle_cell(self, tmp_path, good_payload):
        triangle = good_payload["triangle"]
        assert triangle["rows"], "fixture must have triangle rows"
        triangle["rows"][0][0] += 1  # b(1, 1) must be 1
        self._assert_rejected(tmp_path, good_payload, "recurrence")

    def test_rejects_ragged_triangle(self, tmp_path, good_payload):
        triangle = good_payload["triangle"]
        triangle["rows"][0] = triangle["rows"][0][:-1]
        self._assert_rejected(tmp_path, good_payload, "length")
