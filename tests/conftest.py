"""Shared fixtures and oracles for the test suite."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from slmajorant import Potential

PI2 = math.pi**2


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


def pl_pairing(q: Potential, xs, ys) -> float:
    """Pairing of q with a piecewise-linear function given by (xs, ys):
    density integrated exactly against the interpolant, atoms evaluated
    pointwise.  Independent of the antiderivative representation."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    total = 0.0
    edges = q.edges()
    cuts = np.union1d(edges, xs)
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        if mid <= xs[0] or mid >= xs[-1]:
            ya = yb = 0.0
            if xs[0] <= a and b <= xs[-1]:
                ya = np.interp(a, xs, ys)
                yb = np.interp(b, xs, ys)
        else:
            ya = np.interp(a, xs, ys)
            yb = np.interp(b, xs, ys)
        total += q.density_at(mid) * 0.5 * (ya + yb) * (b - a)
    for pos, m in q.atoms:
        if xs[0] < pos < xs[-1]:
            total += m * float(np.interp(pos, xs, ys))
    return total


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
