"""The eigen-solves against the reference loops in tests/reference.py:
the same floats, bit for bit, from fewer phase sweeps."""

import numpy as np
import pytest

import slmajorant.eigensolver as es
import slmajorant.extremal as ex
import slmajorant.measures as ms
from slmajorant import Potential, PowerWeight, SolverConfig, solve_extremal_gamma_gt1
from conftest import PI2, random_potential
from reference import eigenvalue_ref, eigenvalue_warm_ref

CASES = [  # (seed, grid_n, max_density, max_atoms)
    (1, 64, 2.0, 0),
    (2, 64, 500.0, 0),
    (3, 64, 2.0, 3),
    (4, 256, 50.0, 3),
    (9, 16, 0.0, 3),    # three atoms on zero density: the gamma = 1 shape
]
OFFSETS = (1e-9, 1e-6, 1e-3, 0.05, 0.5)


def _potential(case):
    seed, grid_n, max_density, max_atoms = case
    q = random_potential(np.random.default_rng(seed), grid_n, max_density,
                         max_atoms)
    if max_density == 0.0:   # what Potential.from_atoms builds
        assert q.atoms and not q.density.any()
    return q


def _guesses(lam: float, n: int) -> list[float]:
    """Guesses 1e-9 to 50 % off lam on both sides, guesses at and below
    the lower end of the global bracket (where the lower end clips), and
    guesses at and past 4 pi^2 (n+1)^2 (where the upper bound is needed)."""
    low = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
    base = 4.0 * PI2 * (n + 1) ** 2
    out = [lam * (1.0 + s * f) for f in OFFSETS for s in (-1.0, 1.0)]
    out += [low, 0.9 * low, low * (1.0 + 1e-9)]
    out += [base * (1.0 - 1e-9), base, base * 1.2, lam * 3.0]
    return out


@pytest.mark.parametrize("n", [0, 3, 16])
@pytest.mark.parametrize("case", CASES)
def test_solves_are_bit_identical_to_the_reference(case, n):
    q = _potential(case)
    for tol in (1e-10, 1e-13):
        lam = eigenvalue_ref(q, n, tol)
        assert es.eigenvalue(q, n, tol) == lam
        for guess in _guesses(lam, n):
            assert es._eigenvalue_warm(q, n, tol, guess) == eigenvalue_warm_ref(
                q, n, tol, guess), guess


@pytest.mark.parametrize("n", [0, 3, 16])
@pytest.mark.parametrize("case", CASES)
def test_no_solve_sweeps_a_lam_twice(case, n, sweep_counter):
    q = _potential(case)
    lam = es.eigenvalue(q, n)
    assert len(sweep_counter) == len(set(sweep_counter))
    for guess in _guesses(lam, n):
        sweep_counter.clear()
        es._eigenvalue_warm(q, n, 1e-10, guess)
        assert len(sweep_counter) == len(set(sweep_counter)), guess


def test_warm_solve_below_the_bound_base_skips_the_seminorm(monkeypatch):
    calls = []
    seminorm = es.seminorm

    def counted(q, ell):
        calls.append(ell)
        return seminorm(q, ell)

    monkeypatch.setattr(es, "seminorm", counted)
    q = _potential(CASES[2])
    lam = eigenvalue_ref(q, 0)
    base = 4.0 * PI2
    for f in (1e-9, 1e-6, 1e-3, 0.05):
        for guess in (lam * (1.0 - f), lam * (1.0 + f)):
            assert es._eigenvalue_warm(q, 0, 1e-10, guess) == eigenvalue_warm_ref(
                q, 0, 1e-10, guess)
    assert 3.0 * lam < base and calls == []
    # a bracket that reaches past the base needs the bound, once per solve
    es._eigenvalue_warm(q, 0, 1e-10, base)
    assert calls == [2]


def test_gamma_gt1_saves_two_sweeps_per_solve(monkeypatch, sweep_counter):
    solves = []

    def counting(solve):
        def wrapped(*args):
            solves.append(args[0])
            return solve(*args)
        return wrapped

    def run(cold, warm):
        monkeypatch.setattr(ex, "eigenvalue", counting(cold))
        monkeypatch.setattr(ex, "_eigenvalue_warm", counting(warm))
        solves.clear()
        sweep_counter.clear()
        report = solve_extremal_gamma_gt1(PowerWeight(1.0, 1.0), 2.0,
                                          SolverConfig(grid_n=256))
        return report, len(solves), len(sweep_counter)

    ref, ref_solves, ref_sweeps = run(eigenvalue_ref, eigenvalue_warm_ref)

    builds = []
    build_segments = ms.build_segments

    def counted_build(*args):
        builds.append(args[0])
        return build_segments(*args)

    monkeypatch.setattr(ms, "build_segments", counted_build)
    new, solves_n, sweeps = run(es.eigenvalue, es._eigenvalue_warm)
    assert (new.M, new.residual, new.trace) == (ref.M, ref.residual, ref.trace)
    assert solves_n == ref_solves
    assert sweeps <= ref_sweeps - 2 * ref_solves
    # each iterate's potential builds its fused mesh once, shared by its
    # solve, its ShootingSolution and the final eigenfunction's phase check
    assert len(builds) == solves_n


def test_warm_solve_falls_back_to_one_cold_solve(monkeypatch):
    # a NaN guess passes no bracket end, so after its 80 expansions the
    # warm solve returns the cold solve's answer
    q = Potential(16, np.zeros(16), ((0.3, 5.0),))
    want = es.eigenvalue(q, 0, 1e-10)
    calls = []
    cold = es.eigenvalue

    def counted(*args):
        calls.append(args)
        return cold(*args)

    monkeypatch.setattr(es, "eigenvalue", counted)
    assert es._eigenvalue_warm(q, 0, 1e-10, float("nan")) == want
    assert len(calls) == 1
