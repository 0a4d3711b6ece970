"""Shared fixtures and oracles for the test suite."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import brentq

from slmajorant import Potential
from slmajorant import _propagate as prop

PI2 = math.pi**2

# Property tests draw the same examples on every run, so the suite stays
# reproducible; their example counts are bounded per test.
settings.register_profile(
    "deterministic", derandomize=True, database=None, max_examples=25,
    deadline=None,
)
settings.load_profile("deterministic")


def random_potential(rng, grid_n=64, max_density=2.0, max_atoms=0, snap=4096):
    """Seeded random potential; atom positions snap to multiples of 1/snap
    so that tests needing mesh alignment stay exact."""
    dens = rng.uniform(0.0, max_density, grid_n)
    atoms = []
    used = set()
    for _ in range(int(rng.integers(0, max_atoms + 1)) if max_atoms else 0):
        j = int(rng.integers(int(0.27 * snap), int(0.73 * snap)))
        if j in used:
            continue
        used.add(j)
        atoms.append((j / snap, float(rng.uniform(0.1, 0.8))))
    return Potential(grid_n, dens, tuple(atoms))


def assert_fused_form(mesh):
    """A fused mesh is in the form phase sweeps: tuples of floats below
    SCAN_MIN_SEGMENTS segments, read-only arrays from there on."""
    if len(mesh[1]) < prop.SCAN_MIN_SEGMENTS:
        assert all(type(v) is tuple and all(type(x) is float for x in v)
                   for v in mesh)
    else:
        assert all(type(v) is np.ndarray and not v.flags.writeable for v in mesh)


def non_dyadic_potential() -> Potential:
    """Density uniform in [0, 2000] on 100 cells (seed 0).  On this grid
    (j/n)*n rounds below j at the nodes j = 29, 57 and 58, so a piece placed
    by flooring x * n lands one cell to the left there."""
    return Potential(100, np.random.default_rng(0).uniform(0.0, 2000.0, 100))


def centered_atom_lambda(mass_over_r: float) -> float:
    """Ground eigenvalue of a single centered atom with the given mass,
    from the derivative-jump matching condition: with s = sqrt(lam)/2,
    tan(s) = -4 s / mass, s in (pi/2, pi)."""
    m = mass_over_r
    s = brentq(
        lambda s: math.tan(s) + 4.0 * s / m,
        math.pi / 2 + 1e-12,
        math.pi - 1e-12,
        rtol=8.9e-16,
    )
    return 4.0 * s * s


# r(z) in mpmath for the weights the single-atom referee is run on
MP_WEIGHTS = {
    "const:1": lambda z: mpmath.mpf(1),
    "const:0.3": lambda z: mpmath.mpf("0.3"),
    "power:1.5,1.25": lambda z: z ** mpmath.mpf("1.5") * (1 - z) ** mpmath.mpf("1.25"),
}


def single_atom_lambda(z: float, weight: str) -> float:
    """Ground eigenvalue of one saturating atom (mass 1/r(z)) at z, at 40
    digits: with y = sin(kx) left of z and a multiple of sin(k(1 - x))
    right of it, the derivative jump m y(z) gives
    k sin k + m sin(kz) sin(k(1 - z)) = 0, and lambda = k**2.  The value
    is m sin(kz)**2 > 0 at k = pi, and the ground root is its first sign
    change in (pi, 2 pi]."""
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        m = 1 / MP_WEIGHTS[weight](z)

        def f(k):
            return k * mpmath.sin(k) + m * mpmath.sin(k * z) * mpmath.sin(k * (1 - z))

        lo = mpmath.pi
        for j in range(1, 257):
            hi = mpmath.pi * (1 + mpmath.mpf(j) / 256)
            if f(hi) <= 0:
                break
            lo = hi
        k = mpmath.findroot(f, (lo, hi), solver="anderson")
        return float(k * k)


def dual_seminorm_oracle(q: Potential, ell: int, n_grid: int = 2048) -> float:
    """Discretized dual program for the compactness seminorm: maximize the
    pairing of q with a piecewise-linear y on an n_grid mesh of the support
    interval, under the Euclidean slope budget and y vanishing at both
    ends.  Atom positions must align with the mesh."""
    a, b = 2.0 ** (-ell), 1.0 - 2.0 ** (-ell)
    xs = np.linspace(a, b, n_grid + 1)
    dx = (b - a) / n_grid
    grad = np.zeros(n_grid + 1)
    for k in range(n_grid):
        qv = q.density_at(0.5 * (xs[k] + xs[k + 1]))
        grad[k] += qv * dx / 2.0
        grad[k + 1] += qv * dx / 2.0
    for pos, m in q.atoms:
        j = int(round((pos - a) / dx))
        assert abs(xs[j] - pos) < 1e-12, "atom must align with the dual mesh"
        grad[j] += m
    suffix = np.cumsum(grad[::-1])[::-1]
    coeff = dx * suffix[1:]
    centered = coeff - coeff.mean()
    return float(np.linalg.norm(centered) / math.sqrt(dx))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def sweep_counter(monkeypatch):
    """List of the lam of every phase sweep made while the test runs;
    clear it to start a new count."""
    lams = []
    phase = prop.phase

    def counted(lens, qs, masses, lam, scans=None):
        lams.append(lam)
        return phase(lens, qs, masses, lam, scans)

    monkeypatch.setattr(prop, "phase", counted)
    return lams
