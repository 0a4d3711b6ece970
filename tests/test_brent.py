"""The in-package Brent root finder against scipy's brentq: the same
points evaluated, the same root, the same errors."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from slmajorant import Potential
from slmajorant.eigensolver import EPS, _brent, _gap_fn, upper_bound
from conftest import PI2, random_potential

# (xtol, rtol) pairs the package passes: an eigen-solve at its default and
# tightest tolerance, the support edge and the gamma = 1 constraint root
TOLS = [(1e-15, 1e-10), (1e-15, 4.0 * EPS), (1e-15, 8.9e-16), (1e-13, 8.9e-16)]


def _recorded(f):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def _assert_same(f, a, b, xtol, rtol, maxiter=100):
    g1, xs1 = _recorded(f)
    g2, xs2 = _recorded(f)
    root = _brent(g1, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert root == brentq(g2, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert xs1 == xs2
    return root


def _smooth(rng):
    """Seeded smooth functions with one sign change in [a, b]."""
    out = []
    for _ in range(40):
        r = float(rng.uniform(-3.0, 3.0))
        a, b = r - float(rng.uniform(0.01, 5.0)), r + float(rng.uniform(0.01, 5.0))
        k = float(rng.uniform(0.1, 4.0))
        c = float(rng.uniform(0.5, 3.0))
        out += [
            (lambda x, r=r, k=k: k * (x - r) + (x - r) ** 3, a, b),
            (lambda x, r=r, c=c: math.exp(c * (x - r)) - 1.0, a, b),
            (lambda x, r=r, k=k: math.tanh(k * (x - r)) + 0.1 * (x - r), a, b),
            (lambda x, r=r: np.float64(math.atan(x - r) * 1e-3), a, b),
        ]
    return out


def _steps(rng):
    """Step-like and staircase functions, where the method bisects."""
    out = []
    for _ in range(30):
        r = float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(2, 40))
        out += [
            (lambda x, r=r: 1.0 if x >= r else -1.0, 0.0, 1.0),
            (lambda x, r=r, n=n: math.floor(n * (x - r)) + 0.5, 0.0, 1.0),
            (lambda x, r=r: math.tanh(1e6 * (x - r)), 0.0, 1.0),
        ]
    return out


@pytest.mark.parametrize("xtol, rtol", TOLS)
def test_smooth_and_step_functions_match_brentq(xtol, rtol):
    rng = np.random.default_rng(11)
    for f, a, b in _smooth(rng) + _steps(rng):
        _assert_same(f, a, b, xtol, rtol)
        _assert_same(f, b, a, xtol, rtol)   # reversed ends


@pytest.mark.parametrize("xtol, rtol", TOLS[:2])
def test_phase_gaps_match_brentq(xtol, rtol):
    """The eigen-solve's own functions: theta(1; lam) - (n+1) pi on atom,
    step and random potentials, over the cold bracket."""
    rng = np.random.default_rng(12)
    pots = [random_potential(rng, 16, 0.0, 3) for _ in range(4)]
    pots += [random_potential(rng, 64, 500.0, 2) for _ in range(4)]
    pots += [Potential(64, np.where(np.arange(64) < 32, 0.0, 1e4))]
    for q in pots:
        for n in (0, 2, 9):
            lo = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
            _assert_same(_gap_fn(q.fused_mesh, q.phase_memo, n), lo,
                         upper_bound(q, n), xtol, rtol)


def test_an_exact_zero_at_either_end_is_returned():
    for f in (lambda x: x - 1.0, lambda x: 2.0 - 2.0 * x):
        assert _assert_same(f, 1.0, 3.0, 1e-15, 1e-10) == 1.0
        assert _assert_same(f, -2.0, 1.0, 1e-15, 1e-10) == 1.0


def test_ends_of_the_same_sign_raise_value_error():
    with pytest.raises(ValueError, match="different signs"):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15, 1e-10)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15, rtol=1e-10)


@pytest.mark.parametrize("f", [
    lambda x: math.nan if x == 1.0 else x - 0.5,          # at an end
    lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,    # at the first step
    lambda x: np.float64(math.nan) if 0.49 < x < 0.51 else x - 0.5,
])
def test_a_nan_value_raises_value_error(f):
    for solver in (_brent, lambda *a: brentq(*a[:3], xtol=a[3], rtol=a[4])):
        with pytest.raises(ValueError, match="NaN"):
            solver(f, 0.0, 1.0, 1e-15, 1e-10)


def test_exhausted_iterations_raise_runtime_error():
    def f(x):
        return math.exp(x) - 2.0

    with pytest.raises(RuntimeError, match="Failed to converge after 3 iter"):
        _brent(f, 0.0, 5.0, 1e-15, 1e-10, maxiter=3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iter"):
        brentq(f, 0.0, 5.0, xtol=1e-15, rtol=1e-10, maxiter=3)
    assert _assert_same(f, 0.0, 5.0, 1e-15, 1e-10) == pytest.approx(math.log(2.0))
