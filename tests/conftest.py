import os

# BLAS on one thread before numpy loads, as in bench/run.py: numpy's complex
# products on many rows can run threaded, and far slower, on a busy host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

import hitchsov
from hitchsov.curves import build_curve, period_matrix
from hitchsov.spectral import (resolve_type, coefficient_layout,
                               SpectralPoint, lambda_roots)
from hitchsov.separation import PhaseConfiguration

npoly = np.polynomial.polynomial


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so name the tree under test
    return f"hitchsov: {hitchsov.__file__}"


def make_curve(roots):
    return build_curve(npoly.polyfromroots(list(roots)))


def disc_curves(seeds, genus):
    """Curves with 2 genus + 1 branch points uniform in the disc |x| <= 2,
    pairwise at least 0.5 apart (by rejection), one per seed: the draws of
    the benchmark's ``branch_points``."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < 2 * genus + 1:
            x = 2.0 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            if all(abs(x - q) >= 0.5 for q in pts):
                pts.append(x)
        yield make_curve(pts)


def sample_fiber_config(layout, curve, ham, rng, spread=0.8):
    """h points on the spectral cover of a planted coefficient vector.

    Skips fiber roots too close to lambda = 0: for the odd-orthogonal
    family lambda = 0 lies on every fiber and contributes a zero row to
    the interpolation system.
    """
    points = []
    while len(points) < layout.h:
        x = spread * (rng.standard_normal() + 1j * rng.standard_normal())
        if any(abs(x - p.x) < 1e-3 for p in points):
            continue
        y = np.sqrt(complex(curve.p(x)))
        if rng.random() < 0.5:
            y = -y
        roots = [r for r in lambda_roots(layout, curve, ham, x, y)
                 if abs(r) > 1e-6]
        if not roots:
            continue
        lam = roots[int(rng.integers(len(roots)))]
        points.append(SpectralPoint(x, y, lam))
    return PhaseConfiguration(points)


def random_config(layout, curve, rng, spread=0.8):
    """Generic separated points on the curve with generic lambdas."""
    points = []
    while len(points) < layout.h:
        x = spread * (rng.standard_normal() + 1j * rng.standard_normal())
        if any(abs(x - p.x) < 1e-3 for p in points):
            continue
        y = np.sqrt(complex(curve.p(x)))
        if rng.random() < 0.5:
            y = -y
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        points.append(SpectralPoint(x, y, lam))
    return PhaseConfiguration(points)


@pytest.fixture(scope="session")
def curve15():
    """The genus-2 curve with branch points 1..5."""
    return make_curve([1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.fixture(scope="session")
def theta15(curve15):
    return period_matrix(curve15)


@pytest.fixture(scope="session")
def curve_c():
    """A genus-2 curve with complex branch points."""
    return make_curve([0.0, 1.0, -1.2, 2.0 + 0.5j, -0.3 - 1.1j])


@pytest.fixture(scope="session")
def gl2(curve_c):
    spec = resolve_type("GL", 2)
    return coefficient_layout(spec, curve_c)
