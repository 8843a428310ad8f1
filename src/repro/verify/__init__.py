"""Differential verification: estimator vs oracles, at corpus scale.

The harness closes the loop the paper itself drew — analytic estimates
checked against independently produced layouts — and extends it with
the equivalence and metamorphic invariants accumulated by the perf
work.  See :mod:`repro.verify.runner` for the stage pipeline and
``mae verify`` for the CLI front door.
"""

from repro.verify.checks import (
    CheckResult,
    check_area_monotone_in_devices,
    check_caches_identity,
    check_frontend_accuracy,
    check_incremental_equivalence,
    check_serve_equivalence,
    check_plan_vs_direct,
    check_row_sweep_sanity,
    check_shared_within_upper_bound,
    check_sharing_factor_monotone,
    check_trace_identity,
    run_module_checks,
)
from repro.verify.congestion_envelope import (
    CONGESTION_ENVELOPE_SCHEMA_VERSION,
    CongestionEnvelopeBounds,
    CongestionEnvelopePoint,
    load_congestion_envelope,
    measure_congestion_case,
    measure_congestion_envelope,
    save_congestion_envelope,
    shape_distance,
    summarize_congestion,
)
from repro.verify.corpus import CaseSpec, draw_corpus, family_names
from repro.verify.envelope import (
    EnvelopeBounds,
    EnvelopePoint,
    measure_case,
    summarize,
    verification_schedule,
)
from repro.verify.inject import perturbed_standard_cell
from repro.verify.records import (
    RECORD_SCHEMA_VERSION,
    SeedRecord,
    load_records,
    save_records,
)
from repro.verify.runner import (
    REPORT_SCHEMA_VERSION,
    VerifyOptions,
    VerifyReport,
    replay_records,
    run_verify,
)
from repro.verify.shrink import ShrinkResult, shrink_module, without_devices

__all__ = [
    "CONGESTION_ENVELOPE_SCHEMA_VERSION",
    "CaseSpec",
    "CongestionEnvelopeBounds",
    "CongestionEnvelopePoint",
    "CheckResult",
    "EnvelopeBounds",
    "EnvelopePoint",
    "RECORD_SCHEMA_VERSION",
    "REPORT_SCHEMA_VERSION",
    "SeedRecord",
    "ShrinkResult",
    "VerifyOptions",
    "VerifyReport",
    "check_area_monotone_in_devices",
    "check_caches_identity",
    "check_frontend_accuracy",
    "check_incremental_equivalence",
    "check_serve_equivalence",
    "check_plan_vs_direct",
    "check_row_sweep_sanity",
    "check_shared_within_upper_bound",
    "check_sharing_factor_monotone",
    "check_trace_identity",
    "draw_corpus",
    "family_names",
    "load_congestion_envelope",
    "load_records",
    "measure_case",
    "measure_congestion_case",
    "measure_congestion_envelope",
    "perturbed_standard_cell",
    "save_congestion_envelope",
    "replay_records",
    "run_module_checks",
    "run_verify",
    "save_records",
    "shape_distance",
    "shrink_module",
    "summarize",
    "summarize_congestion",
    "verification_schedule",
    "without_devices",
]
