"""Seed sweep: every check passes across seeds and dimensions.

``verify all`` at n = 1, 2, 3 and the quotient suite at 40 samples (the
benchmark's quotient-newton configuration), each for seeds 0-15.

Marked slow (several minutes); run with ``pytest -m slow``.
"""

import pytest

from hkgeom.suites import RunConfig, run_suite


def _failures(cfg):
    report = run_suite(cfg)
    return [(r.check_id, r.residual, r.tolerance, r.detail) for r in report.records if not r.passed]


@pytest.mark.slow
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(16))
def test_verify_all_passes(seed, n):
    assert not _failures(RunConfig(seed=seed, n=n))


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(16))
def test_quotient_40_samples_passes(seed):
    assert not _failures(RunConfig(suite="quotient", samples=40, seed=seed))
