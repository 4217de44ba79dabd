"""Seed and configuration sweeps: every check passes across the configuration space.

``verify all`` at n = 1, 2, 3 and the quotient suite at 40 samples (the
benchmark's quotient-newton configuration), each for seeds 0-15; the
gh suite at three centre sets and the twistor suite at n = 1, 2, 3,
whose samples are drawn by rejection or in a fibre annulus, each for
seeds 0-99; the batched quotient chart residuals against one call per
1-row batch at 40 samples and at levels 2 and 0.5, seeds 0-15; each flat stencil row
against its roundoff model at n = 1, 2, 3, seeds 0-19; and ``verify
all`` on 60 derandomized ``hypothesis`` draws of n, centres, level c,
sample count and seed, each either passing every check or rejected by
``RunConfig`` for a stated resolution floor; the quotient suite on 60
draws of a level c log-uniform between the level floor and ceiling; and
the gh suite on 60 draws of c up to its ceiling in size, at the three
centre sets of the seed sweep.

The ``hypothesis`` draws are derandomized but not fixed across commits:
hypothesis 6.131 and later mines literal constants from the local
modules (``hypothesis/internal/constants_ast.py``) and draws one of them
in place of a generated value with probability 0.05 for integers and
0.15 for floats (``providers._maybe_draw_constant``).  A constant changed
anywhere under ``src/`` therefore changes the drawn configurations, even
with ``derandomize=True``.  The ``@example`` rows pin what must be covered
at every commit: each ``RunConfig`` floor and ceiling itself, which must
pass, and a value just past each, which must be rejected.

Marked slow (several minutes); run with ``pytest -m slow``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkgeom import flatspace as fs
from hkgeom import quotient as qt
from hkgeom import suites
from hkgeom.errors import ConfigError
from hkgeom.forms import type11_residual
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


#: the gh and twistor configurations whose sampled points the seed sweep covers:
#: two, three and four centres (with c = 0.7), and n = 1, 2, 3 for the twistor space
_SAMPLED_CONFIGS = {
    "gh": {"suite": "gh"},
    "gh-three-centres": {"suite": "gh", "centers": (0.0, 1.0, 3.0)},
    "gh-four-centres": {"suite": "gh", "centers": (-1.0, 0.5, 2.0, 2.3), "c": 0.7},
    "twistor-n1": {"suite": "twistor", "n": 1},
    "twistor-n2": {"suite": "twistor", "n": 2},
    "twistor-n3": {"suite": "twistor", "n": 3},
}


@pytest.mark.slow
@pytest.mark.parametrize("name", _SAMPLED_CONFIGS)
def test_sampled_suites_pass_at_seeds_0_to_99(name):
    # a fixed seed only fixes the samples; the verdicts must hold at every seed
    failures = {
        seed: bad
        for seed in range(100)
        if (bad := _failures(RunConfig(seed=seed, **_SAMPLED_CONFIGS[name])))
    }
    assert not failures


#: the flat stencil rows and the field each one differentiates: (k of the
#: (k, 1) rotation weights, or None for the calibration field |z|^2 / 2)
_FLAT_STENCIL_ROWS = {
    "flat.curvature.type11.semifree": 0,
    "flat.curvature.type11.full": 1,
    "flat.full-rotation.trivial": 1,
    "flat.ddc.calibration": None,
}
#: the stated factor over the roundoff model: type11_residual compares two
#: rounded components, and the model is an estimate, not a bound (the worst
#: measured ratio is 1.35, at n = 3)
_ROUNDOFF_FACTOR = 4.0


@pytest.mark.slow
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("check_id", _FLAT_STENCIL_ROWS)
def test_flat_stencil_rows_are_roundoff_alone(check_id, n):
    # an order-2 nested stencil is exact on the quadratic flat fields, so each
    # row's residual is roundoff, about (1/h)^2 eps max|f|, with f = mu / deg
    # (or |z|^2 / 2) taken over the sample box plus the nested stencil's reach
    scheme = suites._FLAT_SCHEME
    assert scheme.order == 2
    a = 1.5 + 2 * scheme.radius
    k = _FLAT_STENCIL_ROWS[check_id]
    if k is None:
        f_max = a**2
    else:
        spec = suites._rotation(RunConfig(n=n), k)
        f_max = abs(fs.moment_map(spec, np.full((1, 4 * n), a))[0]) / spec.degree
    bound = _ROUNDOFF_FACTOR * np.finfo(float).eps * f_max / scheme.h**2
    runs = [RunConfig(suite="flat", n=n, seed=seed) for seed in range(20)]
    worst = max(suites.run_check(cfg, check_id).residual for cfg in runs)
    assert worst <= bound, (worst, bound)


def _single_point_residuals(cfg):
    """The three quotient chart residuals, each the worst of one call per ``charts`` of levels[r:r+1]."""
    action, rotator = qt.EGUCHI_HANSON.action, qt.EGUCHI_HANSON.rotator
    weight = (cfg.level,)

    def rows(check_id):
        levels = suites._level_points(action, suites._check_rng(cfg, check_id), cfg)
        return [qt.charts(levels[r : r + 1]) for r in range(len(levels))]

    match, type11, descent = [], [], []
    for p in rows("quotient.curvature.match"):
        got = qt.canonical_bundle_curvature(p, weight)
        match.append(np.max(np.abs(got - qt.descended_curvature(p, rotator))))
    for p in rows("quotient.curvature.type11"):
        F = qt.descended_curvature(p, rotator)
        for S in qt.quotient_structures(p)[0]:
            type11.append(type11_residual(F, S, structure_tol=1e-4)[0])
    for p in rows("quotient.moment.descent"):
        descent.append(qt.moment_descent_residual(p, rotator)[0])
    return {
        "quotient.curvature.match": float(max(match)),
        "quotient.curvature.type11": float(max(type11)),
        "quotient.moment.descent": float(max(descent)),
    }


@pytest.mark.slow
@pytest.mark.parametrize("config", [{"samples": 40}, {"c": 2.0}, {"c": 0.5}], ids=str)
@pytest.mark.parametrize("seed", range(16))
@pytest.mark.filterwarnings("ignore:level is not integral")
def test_batched_quotient_residuals_equal_single_point_calls(seed, config):
    cfg = RunConfig(suite="quotient", seed=seed, **config)
    for check_id, want in _single_point_residuals(cfg).items():
        assert suites.run_check(cfg, check_id).residual == want, check_id


@pytest.mark.slow
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    centers=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True).map(sorted),
    c=st.floats(0.0, 3.0),
    samples=st.sampled_from([1, 3, 8, 20, 60]),
    seed=st.integers(0, 2**32 - 1),
)
# a centre gap of exactly _MIN_CENTER_GAP and the level c = _MIN_QUOTIENT_LEVEL pass ...
@example(n=2, centers=[0.0, suites._MIN_CENTER_GAP], c=0.0, samples=20, seed=0)
@example(n=2, centers=[0.0, 1.0], c=suites._MIN_QUOTIENT_LEVEL, samples=1, seed=3)
# ... and one value just below either floor is rejected
@example(
    n=2, centers=[0.0, np.nextafter(suites._MIN_CENTER_GAP, 0.0)], c=0.0, samples=20, seed=0
)
@example(
    n=2, centers=[0.0, 1.0], c=np.nextafter(suites._MIN_QUOTIENT_LEVEL, 0.0), samples=20, seed=0
)
def test_random_configurations_pass(n, centers, c, samples, seed):
    params = dict(n=n, centers=tuple(centers), c=c, samples=samples, seed=seed)
    tight = any(b - a < suites._MIN_CENTER_GAP for a, b in zip(centers, centers[1:]))
    if tight or 0 < c < suites._MIN_QUOTIENT_LEVEL:
        # the stated resolution floors turn a configuration away, and only they may
        with pytest.raises(ConfigError):
            RunConfig(**params)
        return
    cfg = RunConfig(**params)
    failures = _failures(cfg)
    assert not failures, f"{cfg}: {failures}"


_FLOOR, _CEILING = suites._MIN_QUOTIENT_LEVEL, suites._MAX_QUOTIENT_LEVEL


@pytest.mark.slow
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    # log-uniform, clipped so that rounding in exp cannot step past a bound
    c=st.floats(math.log(_FLOOR), math.log(_CEILING)).map(
        lambda t: min(max(math.exp(t), _FLOOR), _CEILING)
    ),
    samples=st.sampled_from([1, 3, 8, 20, 60]),
    seed=st.integers(0, 2**32 - 1),
)
# the level floor and ceiling pass ...
@example(c=_FLOOR, samples=20, seed=0)
@example(c=_CEILING, samples=20, seed=0)
# ... and a level just past either is rejected
@example(c=float(np.nextafter(_FLOOR, 0.0)), samples=20, seed=0)
@example(c=float(np.nextafter(_CEILING, np.inf)), samples=20, seed=0)
@pytest.mark.filterwarnings("ignore:level is not integral")
def test_quotient_passes_at_levels_between_the_floor_and_the_ceiling(c, samples, seed):
    params = dict(suite="quotient", c=c, samples=samples, seed=seed)
    if not _FLOOR <= c <= _CEILING:
        with pytest.raises(ConfigError, match="quotient level"):
            RunConfig(**params)
        return
    cfg = RunConfig(**params)
    failures = _failures(cfg)
    assert not failures, f"{cfg}: {failures}"


_GH_C = suites._MAX_GH_C
_GH_CENTERS = [
    params.get("centers", RunConfig().centers)
    for params in _SAMPLED_CONFIGS.values()
    if params["suite"] == "gh"
]


@pytest.mark.slow
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    centers=st.sampled_from(_GH_CENTERS),
    c=st.floats(-_GH_C, _GH_C),
    samples=st.sampled_from([1, 3, 8, 20, 60]),
    seed=st.integers(0, 2**32 - 1),
)
# the ceiling passes at either sign, on two draws where gh.harmonic read just over its
# tolerance while it differentiated phi's constant c ...
@example(centers=_GH_CENTERS[0], c=_GH_C, samples=20, seed=41)
@example(centers=_GH_CENTERS[1], c=-_GH_C, samples=20, seed=4)
# ... and a value just past it is rejected
@example(centers=_GH_CENTERS[0], c=float(np.nextafter(_GH_C, np.inf)), samples=20, seed=0)
@example(centers=_GH_CENTERS[0], c=float(np.nextafter(-_GH_C, -np.inf)), samples=20, seed=0)
def test_gh_passes_for_c_up_to_its_ceiling(centers, c, samples, seed):
    params = dict(suite="gh", centers=centers, c=c, samples=samples, seed=seed)
    if abs(c) > _GH_C:
        with pytest.raises(ConfigError, match="gh constant"):
            RunConfig(**params)
        return
    cfg = RunConfig(**params)
    failures = _failures(cfg)
    assert not failures, f"{cfg}: {failures}"
