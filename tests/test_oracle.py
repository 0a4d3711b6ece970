import numpy as np
import pytest

from slmajorant import (
    ConstantWeight,
    ParameterError,
    Potential,
    PowerWeight,
    ShootingSolution,
    SolverConfig,
    atom_grid_search,
    brute_force_max,
    constraint_value,
    eigenvalue,
    parse_weight,
    solve_extremal_gamma_gt1,
)
from conftest import MP_WEIGHTS, centered_atom_lambda, single_atom_lambda

CFG = SolverConfig(grid_n=256)


class TestBruteForceMax:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("w", [ConstantWeight(1.0), PowerWeight(1, 1)])
    def test_agrees_with_extremal_solver(self, w, gamma):
        res = brute_force_max(w, gamma, 64, CFG)
        rep = solve_extremal_gamma_gt1(w, gamma, CFG)
        assert abs(res.M_hat - rep.M) / rep.M <= 1e-3
        assert not res.stalled

    def test_gamma2_tight_agreement(self):
        # at gamma = 2 the ascent reaches machine-level stationarity
        res = brute_force_max(ConstantWeight(1.0), 2.0, 64, CFG)
        rep = solve_extremal_gamma_gt1(ConstantWeight(1.0), 2.0, CFG)
        assert abs(res.M_hat - rep.M) / rep.M <= 1e-4

    def test_refinement_monotone(self):
        res8 = brute_force_max(ConstantWeight(1.0), 2.0, 8, CFG)
        res64 = brute_force_max(ConstantWeight(1.0), 2.0, 64, CFG)
        assert res64.M_hat >= res8.M_hat - 1e-9

    def test_output_feasible(self):
        for gamma in (1.5, 3.0):
            res = brute_force_max(PowerWeight(1, 1), gamma, 32, CFG)
            assert constraint_value(PowerWeight(1, 1), gamma, res.q_hat) <= 1.0 + 1e-9
            assert np.all(res.q_hat.density >= 0.0)
            assert res.M_hat == pytest.approx(
                eigenvalue(res.q_hat, 0, 1e-12), rel=1e-9
            )

    def test_ascent_exceeds_feasible_start(self):
        w = ConstantWeight(1.0)
        res = brute_force_max(w, 2.0, 32, CFG)
        start = Potential.constant(1.0, 32)  # constraint value exactly one
        assert res.M_hat >= eigenvalue(start, 0) - 1e-12

    def test_hellmann_feynman_direction(self):
        # ascent direction = per-cell mass of y^2 = finite-difference
        # gradient of the ground eigenvalue in each cell value
        n = 16
        q = Potential.constant(1.0, n)
        lam = eigenvalue(q, 0, 1e-13)
        grad = ShootingSolution(q, lam).cell_square_masses(q.edges())
        step = 1e-5
        for i in (0, 4, 8, 13):
            dens_p = q.density.copy()
            dens_m = q.density.copy()
            dens_p[i] += step
            dens_m[i] -= step
            fd = (
                eigenvalue(Potential(n, dens_p), 0, 1e-13)
                - eigenvalue(Potential(n, dens_m), 0, 1e-13)
            ) / (2.0 * step)
            assert grad[i] == pytest.approx(fd, abs=1e-5)

    def test_one_cell_accepts_no_step(self):
        # one cell has no tangent direction: the saturated start is the
        # answer, every halving predicts no gain, and the run stops after
        # one iteration at zero KKT residual without counting as stalled
        res = brute_force_max(ConstantWeight(1.0), 2.0, 1)
        assert (res.iterations, res.kkt_residual, res.stalled) == (1, 0.0, False)
        assert res.M_hat == eigenvalue(Potential.constant(1.0, 1), 0, 1e-12)

    def test_validation(self):
        w = ConstantWeight(1.0)
        with pytest.raises(ParameterError):
            brute_force_max(w, 1.0, 64, CFG)
        with pytest.raises(ParameterError):
            brute_force_max(w, 2.0, 300, CFG)


class TestAtomGridSearch:
    @pytest.mark.parametrize("weight", sorted(MP_WEIGHTS))
    def test_scan_matches_the_mpmath_referee(self, weight):
        # every 50th of the 1001 scan points, off-centre ones included,
        # against the 40-digit root of the single-atom matching condition
        res = atom_grid_search(parse_weight(weight), 1001)
        for z, lam in res.scan[::50]:
            ref = single_atom_lambda(z, weight)
            assert abs(lam - ref) <= 1e-10 * ref, (z, lam, ref)

    def test_unit_weight_centered(self):
        res = atom_grid_search(ConstantWeight(1.0), 1001, CFG)
        pos, mass = res.q_hat.atoms[0]
        assert abs(pos - 0.5) <= 1e-3  # grid resolution plus refinement
        assert res.M_hat == pytest.approx(centered_atom_lambda(1.0), rel=1e-9)
        assert len(res.scan) == 1001

    def test_vanishing_weight_shifts_toward_cheap_mass(self):
        # r = x has cheap mass (1/r large) near 0 but a Dirichlet-pinned
        # eigenfunction there; the optimum sits left of center.  The
        # reflected weight r = 1-x lands mirror-symmetrically right of
        # center.
        left = atom_grid_search(PowerWeight(1, 0), 301, CFG)
        right = atom_grid_search(PowerWeight(0, 1), 301, CFG)
        assert left.q_hat.atoms[0][0] < 0.5
        assert right.q_hat.atoms[0][0] > 0.5
        assert left.q_hat.atoms[0][0] + right.q_hat.atoms[0][0] == pytest.approx(
            1.0, abs=1e-3
        )

    def test_reflection_symmetry_exact(self):
        left = atom_grid_search(PowerWeight(1, 0), 301, CFG)
        right = atom_grid_search(PowerWeight(0, 1), 301, CFG)
        assert left.M_hat == pytest.approx(right.M_hat, rel=1e-10)

    def test_scan_feasible(self):
        res = atom_grid_search(ConstantWeight(2.0), 101, CFG)
        assert constraint_value(ConstantWeight(2.0), 1.0, res.q_hat) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            atom_grid_search(ConstantWeight(1.0), 100001, CFG)
