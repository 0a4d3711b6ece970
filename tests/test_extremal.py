import math

import numpy as np
import pytest
from scipy.optimize import brentq

from slmajorant import (
    ConstantWeight,
    ParameterError,
    Potential,
    PowerWeight,
    SolverConfig,
    TableWeight,
    PerturbationSpec,
    characterization_residual,
    constraint_value,
    directional_derivative,
    eigenfunction,
    eigenvalue,
    perturbation_path,
    solve_extremal_gamma_eq1,
    solve_extremal_gamma_gt1,
    solve_measure_gamma_eq1,
)
from slmajorant.extremal import alpha_lower_bound
from conftest import PI2, centered_atom_lambda, random_potential

CFG = SolverConfig(grid_n=256)
CFG_SMALL = SolverConfig(grid_n=64)


@pytest.fixture(scope="module")
def report_gamma2():
    return solve_extremal_gamma_gt1(ConstantWeight(1.0), 2.0, CFG)


class TestSolveGammaGt1:
    def test_converges_with_small_residual(self, report_gamma2):
        rep = report_gamma2
        assert rep.converged
        assert rep.residual < 1e-6
        assert abs(rep.constraint - 1.0) <= 1e-6

    def test_strictly_improves_on_zero_potential(self, report_gamma2):
        assert report_gamma2.M > PI2
        assert report_gamma2.M - PI2 > 0.5  # attained margin is macroscopic

    def test_symmetric_extremal_density(self, report_gamma2):
        d = report_gamma2.q_hat.density
        assert float(np.mean(np.abs(d - d[::-1]))) < 1e-6

    def test_trace_monotone_after_start(self, report_gamma2):
        lams = [lam for _, lam, _ in report_gamma2.trace]
        assert all(b >= a - 1e-9 for a, b in zip(lams[1:], lams[2:]))

    def test_m_dominates_feasible_spots(self, report_gamma2, rng):
        w = ConstantWeight(1.0)
        for _ in range(5):
            q = random_potential(rng, grid_n=64, max_density=1.5)
            s = constraint_value(w, 2.0, q)
            if s > 1.0:
                q = q.scaled(s ** (-1.0 / 2.0))
            assert report_gamma2.M >= eigenvalue(q, 0) - 1e-9

    def test_scaling_monotonicity(self, rng):
        q = random_potential(rng, grid_n=48)
        lam1 = eigenvalue(q, 0)
        for t in (1.5, 3.0):
            assert eigenvalue(q.scaled(t), 0) >= lam1 - 1e-12

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            solve_extremal_gamma_gt1(ConstantWeight(1.0), 1.0, CFG_SMALL)

    def test_weight_integrability_precheck(self):
        with pytest.raises(ParameterError):
            solve_extremal_gamma_gt1(PowerWeight(4.0, 0.0), 1.5, CFG_SMALL)

    def test_gamma_to_one_consistency(self):
        # M(gamma) at 1.05, 1.01 climbs toward the gamma = 1 supremum, the
        # extremal measure's M (by Jensen the gamma > 1 balls of a constant
        # weight lie inside the gamma = 1 ball, so M(gamma) stays below it)
        w = ConstantWeight(1.0)
        cfg = SolverConfig(grid_n=512, max_iter=2000)
        m105 = solve_extremal_gamma_gt1(w, 1.05, cfg).M
        m101 = solve_extremal_gamma_gt1(w, 1.01, cfg).M
        m_eq1 = solve_measure_gamma_eq1(w).M
        assert m105 <= m101 <= m_eq1
        assert m_eq1 - m101 < 5e-2


class TestSolveGammaEq1:
    def test_unit_weight_single_atom(self):
        rep = solve_extremal_gamma_eq1(ConstantWeight(1.0), 1, CFG_SMALL)
        assert len(rep.q_hat.atoms) == 1
        pos, mass = rep.q_hat.atoms[0]
        assert abs(pos - 0.5) <= 1e-6
        assert mass == pytest.approx(1.0, rel=1e-12)
        assert rep.M == pytest.approx(centered_atom_lambda(1.0), rel=1e-8)
        assert abs(rep.constraint - 1.0) <= 1e-12
        assert rep.converged

    def test_parabolic_weight_single_atom(self):
        # r = x(1-x): atom at the center carries mass 4, and the jump
        # condition gives the root of tan(s) = -s
        rep = solve_extremal_gamma_eq1(PowerWeight(1, 1), 1, CFG_SMALL)
        pos, mass = rep.q_hat.atoms[0]
        assert abs(pos - 0.5) <= 1e-6
        assert mass == pytest.approx(4.0, rel=1e-6)
        assert rep.M == pytest.approx(centered_atom_lambda(4.0), rel=1e-8)

    def test_bimodal_weight_two_atoms_beat_one(self):
        w = TableWeight((0.2, 0.35, 0.5, 0.65, 0.8), (0.4, 1.2, 3.0, 1.2, 0.4))
        rep1 = solve_extremal_gamma_eq1(w, 1, CFG_SMALL)
        rep2 = solve_extremal_gamma_eq1(w, 2, CFG_SMALL)
        assert rep2.M >= rep1.M - 1e-9
        assert len(rep2.q_hat.atoms) == 2

    def test_constraint_saturated(self):
        w = TableWeight((0.3, 0.7), (1.0, 2.0))
        rep = solve_extremal_gamma_eq1(w, 2, CFG_SMALL)
        assert constraint_value(w, 1.0, rep.q_hat) == pytest.approx(1.0, abs=1e-12)

    def test_k_atoms_validation(self):
        with pytest.raises(ParameterError):
            solve_extremal_gamma_eq1(ConstantWeight(1.0), 0, CFG_SMALL)

    def test_more_atoms_approach_the_measure_supremum(self):
        # extra atoms spread out and climb toward the density-type
        # supremum t^2 with t^2 - pi t - 1 = 0 (flat-top eigenfunction),
        # which no finite atom configuration can exceed
        t = 0.5 * (math.pi + math.sqrt(math.pi**2 + 4.0))
        sup_measure = t * t
        rep1 = solve_extremal_gamma_eq1(ConstantWeight(1.0), 1, CFG_SMALL)
        rep3 = solve_extremal_gamma_eq1(ConstantWeight(1.0), 3, CFG_SMALL)
        measure = solve_measure_gamma_eq1(ConstantWeight(1.0), SolverConfig())
        assert rep3.M >= rep1.M - 1e-9
        assert rep1.M < rep3.M < sup_measure
        assert rep3.M < measure.M
        assert rep3.residual < rep1.residual

    def test_report_invariants(self, report_gamma2):
        rep = report_gamma2
        assert rep.M == pytest.approx(
            eigenvalue(rep.q_hat, 0, 1e-12), rel=1e-9
        )
        from slmajorant import pencil_form

        assert abs(pencil_form(rep.q_hat, rep.M, rep.ground_state)) <= 1e-8


def _parabolic_measure_supremum() -> float:
    """Closed form for r = x(1-x): the symmetric support [a, 1-a] has
    lam = (1 + ln((1-a)/a)/2) / integral_a^{1-a} x(1-x) dx, with a fixed
    by sqrt(lam) cot(sqrt(lam) a) = (1-2a) / (2a(1-a))."""

    def lam_of(a):
        prim = lambda x: x * x / 2.0 - x**3 / 3.0
        return (1.0 + 0.5 * math.log((1.0 - a) / a)) / (prim(1.0 - a) - prim(a))

    def matching(a):
        k = math.sqrt(lam_of(a))
        return k / math.tan(k * a) - (1.0 - 2.0 * a) / (2.0 * a * (1.0 - a))

    return lam_of(brentq(matching, 0.25, 0.45, xtol=1e-15, rtol=8.9e-16))


MEASURE_WEIGHTS = [ConstantWeight(1.0), PowerWeight(1, 1)]


@pytest.fixture(scope="module")
def measure_reports():
    return [solve_measure_gamma_eq1(w, SolverConfig()) for w in MEASURE_WEIGHTS]


class TestSolveMeasureGammaEq1:
    def test_unit_weight_matches_t_squared(self, measure_reports):
        # flat-top eigenfunction: q = t^2 on [pi/(2t), 1 - pi/(2t)] with
        # t^2 - pi t - 1 = 0
        t = 0.5 * (math.pi + math.sqrt(math.pi**2 + 4.0))
        assert measure_reports[0].M == pytest.approx(t * t, rel=1e-9)

    def test_parabolic_weight_matches_closed_form(self, measure_reports):
        assert measure_reports[1].M == pytest.approx(
            _parabolic_measure_supremum(), rel=1e-9
        )

    @pytest.mark.parametrize("w", MEASURE_WEIGHTS, ids=["const", "power11"])
    def test_residual_decays_with_grid(self, w):
        # the support edges fall inside cells, so the grid image of the
        # density carries an O(h^2) defect in sup y^2/r
        res = [
            solve_measure_gamma_eq1(w, SolverConfig(grid_n=n)).residual
            for n in (256, 1024, 4096)
        ]
        assert res[1] * 10.0 <= res[0]
        assert res[2] * 10.0 <= res[1]
        assert res[2] < 1e-6

    def test_non_dyadic_grid(self):
        # on 100 cells the eigenpair's pieces used to take the density of
        # the cell to their left, and the characterization check refused it
        rep = solve_measure_gamma_eq1(PowerWeight(1, 1), SolverConfig(grid_n=100))
        assert rep.residual < 1e-4

    def test_constraint_saturated_and_density_nonnegative(self, measure_reports):
        for w, rep in zip(MEASURE_WEIGHTS, measure_reports):
            assert abs(rep.constraint - 1.0) <= 1e-12
            assert abs(constraint_value(w, 1.0, rep.q_hat) - 1.0) <= 1e-12
            assert not rep.q_hat.atoms
            assert np.all(rep.q_hat.density >= 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_atom_optima_stay_below(self, measure_reports, k):
        for w, rep in zip(MEASURE_WEIGHTS, measure_reports):
            assert solve_extremal_gamma_eq1(w, k, CFG_SMALL).M < rep.M

    def test_unsupported_weights_rejected(self):
        with pytest.raises(ParameterError):
            solve_measure_gamma_eq1(TableWeight((0.3, 0.7), (1.0, 2.0)), CFG_SMALL)
        with pytest.raises(ParameterError):
            solve_measure_gamma_eq1(PowerWeight(2.0, 0.0), CFG_SMALL)


class TestCharacterizationResidual:
    def test_extremal_output_is_near_stationary(self, report_gamma2):
        res = characterization_residual(
            ConstantWeight(1.0), 2.0, report_gamma2.q_hat, report_gamma2.ground_state
        )
        assert res < 1e-6

    def test_constant_potential_is_not_extremal(self):
        w = ConstantWeight(1.0)
        q = Potential.constant(1.0, 128)
        pair = eigenfunction(q, eigenvalue(q, 0, 1e-12), 0)
        assert characterization_residual(w, 2.0, q, pair) > 1e-2

    def test_offcenter_atom_is_not_extremal(self):
        w = ConstantWeight(1.0)
        q = Potential.from_atoms([(0.3, 1.0)], 64)
        pair = eigenfunction(q, eigenvalue(q, 0, 1e-12), 0)
        assert characterization_residual(w, 1.0, q, pair) > 1e-2

    def test_mismatched_pair_rejected(self):
        from slmajorant import DomainError

        w = ConstantWeight(1.0)
        q1 = Potential.constant(1.0, 64)
        q2 = Potential.constant(2.0, 64)
        pair = eigenfunction(q1, eigenvalue(q1, 0), 0)
        with pytest.raises(DomainError):
            characterization_residual(w, 2.0, q2, pair)

    def test_single_atom_residual_is_structurally_positive(self):
        # a positive atom kinks y upward, so it cannot sit at the max of
        # y^2/r; for the unit weight the defect equals cos(s)^2 at the
        # transcendental root
        rep = solve_extremal_gamma_eq1(ConstantWeight(1.0), 1, CFG_SMALL)
        s = math.sqrt(rep.M) / 2.0
        assert rep.residual == pytest.approx(math.cos(s) ** 2, rel=1e-4)


class TestDirectionalDerivative:
    def test_stationary_path(self, report_gamma2):
        q = report_gamma2.q_hat
        spec = PerturbationSpec(q, q, 0.0, ConstantWeight(1.0))
        assert abs(directional_derivative(spec, 2.0)) < 1e-9

    def test_constant_shift(self):
        base = Potential.zero(32)
        c = 2.5
        spec = PerturbationSpec(base, Potential.constant(c, 32), 0.0,
                                ConstantWeight(1.0))
        assert directional_derivative(spec, 1.0) == pytest.approx(c, rel=1e-10)

    def test_matches_finite_differences(self, rng):
        w = ConstantWeight(1.0)
        eps = 1e-4
        for k in range(8):
            base = Potential(32, rng.uniform(0.3, 1.5, 32))
            p = Potential(32, rng.uniform(0.0, 1.5, 32))
            gamma = [1.0, 1.5, 2.0, 3.0][k % 4]
            alpha = (
                0.0
                if gamma == 1.0
                else alpha_lower_bound(w, gamma, base, p) + float(rng.uniform(0.05, 1))
            )
            spec = PerturbationSpec(base, p, alpha, w)
            analytic = directional_derivative(spec, gamma)
            lam_p = eigenvalue(perturbation_path(spec, eps), 0, 1e-13)
            lam_m = eigenvalue(perturbation_path(spec, -eps), 0, 1e-13)
            fd = (lam_p - lam_m) / (2.0 * eps)
            assert analytic == pytest.approx(fd, abs=1e-5)

    def test_alpha_bound_enforced(self):
        w = ConstantWeight(1.0)
        base = Potential.constant(1.0, 32)
        p = Potential.constant(1.0, 32)
        bound = alpha_lower_bound(w, 2.0, base, p)
        with pytest.raises(ParameterError):
            directional_derivative(PerturbationSpec(base, p, bound - 1e-6, w), 2.0)
        directional_derivative(PerturbationSpec(base, p, bound + 1e-6, w), 2.0)

    def test_gamma_one_requires_alpha_zero(self):
        base = Potential.constant(1.0, 32)
        spec = PerturbationSpec(base, base, 0.5, ConstantWeight(1.0))
        with pytest.raises(ParameterError):
            directional_derivative(spec, 1.0)

    def test_first_order_optimality_at_extremal(self, rng):
        # at the converged extremal, every feasible direction with alpha at
        # its admissible floor is non-improving (up to discretization)
        w = ConstantWeight(1.0)
        rep = solve_extremal_gamma_gt1(w, 2.0, SolverConfig(grid_n=1024))
        for _ in range(20):
            p = Potential(1024, rng.uniform(0.0, 1.5, 1024))
            s = constraint_value(w, 2.0, p)
            if s > 1.0:
                p = p.scaled(s ** (-0.5))
            bound = alpha_lower_bound(w, 2.0, rep.q_hat, p)
            spec = PerturbationSpec(rep.q_hat, p, bound + 1e-9, w)
            assert directional_derivative(spec, 2.0) <= 1e-6
