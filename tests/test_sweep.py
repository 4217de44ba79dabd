"""Seed sweep: every check of ``verify all`` passes across seeds and dimensions.

Marked slow (several minutes); run with ``pytest -m slow``.
"""

import pytest

from hkgeom.suites import RunConfig, run_suite


@pytest.mark.slow
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(16))
def test_verify_all_passes(seed, n):
    report = run_suite(RunConfig(seed=seed, n=n))
    failed = [
        (r.check_id, r.residual, r.tolerance, r.detail)
        for r in report.records
        if not r.passed
    ]
    assert not failed
