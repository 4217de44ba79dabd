"""Seed and configuration sweeps: every check passes across the configuration space.

``verify all`` at n = 1, 2, 3 and the quotient suite at 40 samples (the
benchmark's quotient-newton configuration), each for seeds 0-15; and
``verify all`` on 60 derandomized ``hypothesis`` draws of n, centres,
level c, sample count and seed, each either passing every check or
rejected by ``RunConfig`` for a stated resolution floor.

Marked slow (several minutes); run with ``pytest -m slow``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgeom import suites
from hkgeom.errors import ConfigError
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


@pytest.mark.slow
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    centers=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True).map(sorted),
    c=st.floats(0.0, 3.0),
    samples=st.sampled_from([1, 3, 8, 20, 60]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_configurations_pass(n, centers, c, samples, seed):
    try:
        cfg = RunConfig(n=n, centers=tuple(centers), c=c, samples=samples, seed=seed)
    except ConfigError:
        # only the stated resolution floors may turn a drawn configuration away
        tight = any(b - a < suites._MIN_CENTER_GAP for a, b in zip(centers, centers[1:]))
        assert tight or 0 < c < suites._MIN_QUOTIENT_LEVEL
        return
    failures = _failures(cfg)
    assert not failures, f"{cfg}: {failures}"
