"""Deliberate estimator perturbation, for testing the tester.

A verification harness that has never caught anything proves nothing.
:func:`perturbed_standard_cell` injects a controlled fault — scaling
the *direct* standard-cell path's result while leaving the compiled
plans untouched — so a verify run under injection must fail its
``plan_vs_direct`` invariant (and, for large factors, the accuracy
envelope), shrink the counterexample, and emit a replayable seed
record.  The self-test lives in ``tests/test_verify_runner.py`` and
can be reproduced from the CLI with ``mae verify --inject 1.2``.

The patch point is the module-global
``repro.core.standard_cell.estimate_standard_cell_from_stats`` lookup,
which both the facade and the stats-reusing callers resolve at call
time; restoring it is exception-safe.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

from repro.errors import VerificationError


@contextmanager
def perturbed_standard_cell(scale: float = 1.2) -> Iterator[None]:
    """Scale the direct standard-cell estimator's area by ``scale``
    (tracks too, so the fault looks like a real model regression) for
    the duration of the block."""
    if scale <= 0:
        raise VerificationError(f"scale must be positive, got {scale}")
    import repro.core.standard_cell as standard_cell

    original = standard_cell.estimate_standard_cell_from_stats

    def perturbed(stats, process, config=None):
        estimate = original(stats, process, config)
        return dataclasses.replace(
            estimate,
            tracks=max(estimate.tracks, round(estimate.tracks * scale)),
            area=estimate.area * scale,
            wiring_area=estimate.wiring_area * scale,
        )

    standard_cell.estimate_standard_cell_from_stats = perturbed
    try:
        yield
    finally:
        standard_cell.estimate_standard_cell_from_stats = original
