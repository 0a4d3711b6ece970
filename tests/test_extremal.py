import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from slmajorant import (
    ConstantWeight,
    DomainError,
    InvalidPotentialError,
    ParameterError,
    Potential,
    PowerWeight,
    SolverConfig,
    TableWeight,
    PerturbationSpec,
    atom_grid_search,
    ShootingSolution,
    characterization_residual,
    constraint_value,
    directional_derivative,
    eigenfunction,
    eigenvalue,
    parse_weight,
    perturbation_path,
    solve_extremal_gamma_eq1,
    solve_extremal_gamma_gt1,
    solve_measure_gamma_eq1,
)
from slmajorant import extremal
from slmajorant.extremal import _atom_potential, _sup_y2_over_r, alpha_lower_bound
from conftest import (MP_WEIGHTS, PI2, centered_atom_lambda, random_potential,
                      single_atom_lambda)
from reference import (alpha_lower_bound_loop, solve_extremal_gamma_gt1_ref,
                       sup_y2_over_r_ref)

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

    def test_damping_halves_on_each_eigenvalue_drop(self):
        # on a large ball the damped iterate overshoots: lambda drops between
        # iterations three times, and each drop halves tau; the iteration
        # still converges, inside the a-priori bounds
        w = ConstantWeight(1e-4)
        rep = solve_extremal_gamma_gt1(w, 2.0, CFG_SMALL)
        lams = [lam for _, lam, _ in rep.trace[:-1]]  # the last entry is the snap
        drops = sum(b < a - 1e-12 * max(b, 1.0) for a, b in zip(lams, lams[1:]))
        assert drops == 3
        assert rep.converged
        assert len(rep.trace) == 200
        assert _lower_bound(w, 2.0, 64) <= rep.M <= _upper_bound(w, 2.0)

    @pytest.mark.parametrize("w,gamma,grid_n", [
        (ConstantWeight(1e-5), 2.0, 32), (ConstantWeight(1e-4), 2.0, 64),
        (PowerWeight(1, 1), 2.0, 64), (PowerWeight(1, 1), 1.001, 64),
    ], ids=["const1e-5-g2", "const1e-4-g2", "power11-g2", "power11-g1.001"])
    def test_stops_at_the_first_drop_at_the_damping_floor(self, w, gamma, grid_n,
                                                          caplog):
        # against the iteration run to max_iter: tau reaches the floor at
        # the third drop of lambda, so the fourth ends the loop; a run with
        # no fourth drop gives the reference's report, field for field
        cfg = SolverConfig(grid_n=grid_n)
        with caplog.at_level("WARNING", logger="slmajorant"):
            new = solve_extremal_gamma_gt1(w, gamma, cfg)
        ref = solve_extremal_gamma_gt1_ref(w, gamma, cfg)
        lams = [lam for _, lam, _ in ref.trace[:-1]]
        drops = [k for k in range(1, len(lams))
                 if lams[k] < lams[k - 1] - 1e-12 * max(lams[k], 1.0)]
        if len(drops) < 4:
            assert (new.M, new.residual, new.constraint, new.trace, new.converged) == (
                ref.M, ref.residual, ref.constraint, ref.trace, ref.converged)
            assert np.array_equal(new.q_hat.density, ref.q_hat.density)
            assert caplog.records == []
            return
        stop = drops[3]
        assert not ref.converged and not new.converged
        assert len(new.trace) == stop + 2   # the iterates 0 ... stop, then the snap
        assert new.trace[:-1] == ref.trace[:len(new.trace) - 1]
        (record,) = caplog.records
        assert record.name == "slmajorant" and record.levelname == "WARNING"
        assert f"stops at iteration {stop}:" in record.getMessage()
        assert repr(lams[stop]) in record.getMessage()

    def test_snapped_residual_above_tol_res_is_not_converged(self):
        # at gamma = 1.05, and on a small ball at gamma = 3, the loop stops
        # with its residual below tol_res, but the snapped answer's
        # residual lands above it
        for w, gamma, cfg in ((PowerWeight(1, 1), 1.05, CFG),
                              (ConstantWeight(1e-6), 3.0, SolverConfig(grid_n=64))):
            rep = solve_extremal_gamma_gt1(w, gamma, cfg)
            assert len(rep.trace) < cfg.max_iter
            assert rep.trace[-2][2] < cfg.tol_res <= rep.residual
            assert not rep.converged

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


_GL20_X, _GL20_W = np.polynomial.legendre.leggauss(20)


def _euler_lagrange_m(gamma: float, lam0: float, c0: float) -> float:
    """Continuum M for r = 1 at gamma > 1, at 20 digits.

    The extremal is q = c y**m, m = 2/(gamma-1), and with y(1/2) = 1 the
    equation -y'' + q y = lam y has the first integral
    y'**2 = lam (1 - y**2) - kappa (1 - y**n), kappa = c (gamma-1)/gamma
    and n = 2 gamma/(gamma-1).  After y = sin(phi) the half-length and the
    constraint are smooth quadratures over [0, pi/2]:
    integral of 1/sqrt(lam - kappa g) = 1/2 and
    2 c**gamma * integral of sin(phi)**n / sqrt(lam - kappa g) = 1, with
    g = (1 - y**n)/cos(phi)**2 written in expm1/log1p, finite at pi/2.
    (lam, c) is their root from the guess (lam0, c0)."""
    with mpmath.workdps(20):
        g = mpmath.mpf(gamma)
        n = 2 * g / (g - 1)

        def ratio(phi):
            c2 = mpmath.cos(phi) ** 2
            return -mpmath.expm1(n / 2 * mpmath.log1p(-c2)) / c2

        def equations(lam, c):
            kappa = c * (g - 1) / g
            f = lambda phi: 1 / mpmath.sqrt(lam - kappa * ratio(phi))
            half = mpmath.quad(f, [0, mpmath.pi / 2])
            mass = mpmath.quad(lambda phi: mpmath.sin(phi) ** n * f(phi),
                               [0, mpmath.pi / 2])
            return half - mpmath.mpf(1) / 2, 2 * c**g * mass - 1

        lam, _ = mpmath.findroot(equations, (mpmath.mpf(lam0), mpmath.mpf(c0)))
        return float(lam)


class TestContinuumBracket:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_unit_weight_bracket(self, gamma):
        # M_grid <= M_EL <= M_up: the grid answer is attained by an
        # admissible potential, and for any unit phi the dual bound
        # integral of phi'**2 + (integral of phi**n)**((gamma-1)/gamma)
        # is an upper one; phi'**2 integrates to M - <q_hat, phi**2>, and
        # phi**n takes 20-point Gauss-Legendre per cell, where phi is
        # analytic
        rep = solve_extremal_gamma_gt1(ConstantWeight(1.0), gamma, CFG)
        m_el = _euler_lagrange_m(gamma, rep.M, float(np.max(rep.q_hat.density)))
        sol = ShootingSolution(rep.q_hat, rep.M)
        edges = rep.q_hat.edges()
        half = 0.5 * np.diff(edges)
        x = (edges[:-1] + half)[:, None] + half[:, None] * _GL20_X
        n = 2.0 * gamma / (gamma - 1.0)
        phi_n = np.abs(sol.values(x.ravel()).reshape(x.shape)) ** n
        m_up = rep.M - sol.pair(rep.q_hat) + float(
            np.sum(half * (phi_n @ _GL20_W))) ** ((gamma - 1.0) / gamma)
        assert rep.M <= m_el <= m_up
        assert m_up - m_el <= 1e-10 * m_el


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

    @pytest.mark.parametrize("weight", sorted(MP_WEIGHTS))
    def test_single_atom_matches_the_mpmath_referee(self, weight):
        rep = solve_extremal_gamma_eq1(parse_weight(weight), 1, CFG_SMALL)
        (pos, _), = rep.q_hat.atoms
        ref = single_atom_lambda(pos, weight)
        assert abs(rep.M - ref) <= 1e-10 * ref

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

    def test_crowded_bracket_is_skipped(self, monkeypatch):
        # no admissible input is known to crowd three atoms within
        # 4 POS_TOL (a starved atom is pruned first), so POS_TOL is
        # raised to 0.02: the scan
        # places the atoms 0.03 apart around 0.5, and the middle atom's
        # bracket, from its left midpoint + POS_TOL to its right midpoint
        # - POS_TOL, is empty on every sweep
        brackets = []
        golden = extremal._golden_max

        def spy(f, a, b, tol):
            brackets.append((a, b))
            return golden(f, a, b, tol)

        monkeypatch.setattr(extremal, "POS_TOL", 0.02)
        monkeypatch.setattr(extremal, "_golden_max", spy)
        w = ConstantWeight(1.0)
        rep = solve_extremal_gamma_eq1(w, 3, CFG_SMALL)
        assert len(brackets) == 2 * len(rep.trace)
        assert all(a < b for a, b in brackets)
        assert rep.constraint == pytest.approx(1.0, abs=1e-12)
        assert PI2 < rep.M <= _upper_bound(w, 1.0)

    def test_prune_drops_a_starved_atom(self):
        # two wells of y^2/r: the second atom's share starves, it is pruned,
        # and the one left sits at the deeper well, within 1e-8 of k = 1
        # and above the 1001-point atom scan
        w = TableWeight((0.15, 0.25, 0.5, 0.75, 0.85), (3.0, 0.2, 3.0, 1.0, 3.0))
        cfg = SolverConfig(grid_n=64, k_atoms=2)
        with pytest.warns(UserWarning, match="pruning 1 atom"):
            rep = solve_extremal_gamma_eq1(w, 2, cfg)
        (pos, _), = rep.q_hat.atoms
        assert abs(pos - 0.25) < 1e-6
        assert rep.converged
        assert rep.constraint == pytest.approx(1.0, abs=1e-12)
        one = solve_extremal_gamma_eq1(w, 1, CFG_SMALL).M
        assert abs(rep.M - one) <= 1e-8 * one
        assert rep.M >= atom_grid_search(w, 1001, CFG_SMALL).M_hat
        assert rep.M <= _upper_bound(w, 1.0)

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
    def test_unit_weight_matches_t_squared(self):
        # r = v, flat-top eigenfunction: q = t^2 on [pi/(2t), 1 - pi/(2t)]
        # with t^2 - pi t - 1/v = 0.  M is a lower bound on t^2, and the
        # dual bound M + sup y^2/r - <q_hat, y^2> an upper one.  v = 1e-3
        # needs the bracket doubling of the eigenvalue search, and its
        # support edges leave the 4096-cell M 1.6e-9 low
        for v, rel in ((1e-3, 2e-9), (0.05, 1e-9), (1.0, 1e-9), (20.0, 1e-9)):
            w = ConstantWeight(v)
            rep = solve_measure_gamma_eq1(w, SolverConfig())
            t = 0.5 * (math.pi + math.sqrt(math.pi**2 + 4.0 / v))
            assert rep.M == pytest.approx(t * t, rel=rel)
            sol = ShootingSolution(rep.q_hat, rep.M)
            upper = rep.M + _sup_y2_over_r(w, sol)[1] - sol.pair(rep.q_hat)
            assert rep.M <= t * t <= upper

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

    def test_saturated_below_the_free_eigenvalue(self):
        # r so large that even the eigenvalue pi^2 overfills the constraint
        with pytest.raises(DomainError, match="saturated below the free"):
            solve_measure_gamma_eq1(ConstantWeight(1e12), CFG_SMALL)


_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)


def _lower_bound(w, gamma, grid_n):
    """pi^2 + (integral of r)^(-1/gamma): the constant potential that
    saturates the constraint is feasible on every grid."""
    total = float(np.sum(w.cell_pow_integrals(np.arange(grid_n + 1) / grid_n)))
    return PI2 + total ** (-1.0 / gamma)


def _upper_bound(w, gamma):
    """The dual bound with phi = sqrt(2) sin(pi x): pi^2 + 2 (integral of
    r^(-1/(gamma-1)) sin^(2 gamma/(gamma-1))(pi x))^((gamma-1)/gamma) for
    gamma > 1 (8-point Gauss-Legendre on each of 4096 cells), and
    pi^2 + 2 sup sin^2(pi x) / r for gamma = 1 (a 4097-point probe)."""
    if gamma == 1.0:
        x = np.linspace(1e-6, 1.0 - 1e-6, 4097)
        return PI2 + 2.0 * float(np.max(np.sin(np.pi * x) ** 2 / w(x)))
    half = 0.5 / 4096
    x = (np.arange(4096) / 4096 + half)[:, None] + half * _GL8_X
    f = w(x) ** (-1.0 / (gamma - 1.0)) * np.sin(np.pi * x) ** (2.0 * gamma / (gamma - 1.0))
    return PI2 + 2.0 * (half * float(np.sum(f @ _GL8_W))) ** ((gamma - 1.0) / gamma)


BIMODAL = TableWeight((0.2, 0.35, 0.5, 0.65, 0.8), (0.4, 1.2, 3.0, 1.2, 0.4))


class TestAPrioriBounds:
    """Every converged answer lies between the constant potential's
    eigenvalue and the dual bound of the sine.  The non-converged large
    balls (e.g. ConstantWeight(1e-5), gamma = 2) end below the lower bound:
    the damped iteration stops at a drop of lambda at the damping floor,
    a known defect kept as a strict xfail."""

    @pytest.mark.parametrize("w,gamma,grid_n", [
        (PowerWeight(1, 1), 2.0, 1024), (PowerWeight(1, 1), 3.0, 256),
        (ConstantWeight(1.0), 2.0, 256), (BIMODAL, 2.0, 256),
    ], ids=["power11-g2", "power11-g3", "const-g2", "bimodal-g2"])
    def test_gamma_gt1_answer_within_bounds(self, w, gamma, grid_n):
        rep = solve_extremal_gamma_gt1(w, gamma, SolverConfig(grid_n=grid_n))
        assert rep.converged
        assert _lower_bound(w, gamma, grid_n) <= rep.M <= _upper_bound(w, gamma)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 4: the damped iteration stops at a lambda drop at "
        "the damping floor at M = 210.40, below 326.10"))
    def test_large_ball_answer_within_bounds(self):
        w = ConstantWeight(1e-5)
        rep = solve_extremal_gamma_gt1(w, 2.0, SolverConfig(grid_n=32))
        assert _lower_bound(w, 2.0, 32) <= rep.M <= _upper_bound(w, 2.0)

    def test_measure_answers_below_the_gamma_one_bound(self, measure_reports):
        for w, rep in zip(MEASURE_WEIGHTS, measure_reports):
            assert PI2 < rep.M <= _upper_bound(w, 1.0)


class TestSupY2OverR:
    """The zoomed supremum of y^2/r against the golden-section oracle."""

    @pytest.fixture(scope="class")
    def cases(self, measure_reports):
        rng = np.random.default_rng(21)
        out = [(w, rep.q_hat) for w, rep in zip(MEASURE_WEIGHTS, measure_reports)]
        for w in (ConstantWeight(1.0), PowerWeight(1.5, 0.5)):
            out.append((w, solve_extremal_gamma_eq1(w, 2, CFG_SMALL).q_hat))
        for w in (ConstantWeight(2.0), PowerWeight(1, 1), PowerWeight(0.0, 1.8)):
            for k in (1, 2, 3):
                zs = np.sort(rng.uniform(0.05, 0.95, k))
                out.append((w, _atom_potential(w, zs, rng.dirichlet(np.ones(k)))))
        return out

    def test_within_1e12_of_the_oracle_and_above_the_probe(self, cases):
        for w, q in cases:
            sol = ShootingSolution(q, eigenvalue(q, 0, 1e-13))
            x, sup = _sup_y2_over_r(w, sol)
            _, ref = sup_y2_over_r_ref(w, sol)
            assert sup == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert sup == float((sol.values([x]) ** 2 / w(np.array([x])))[0])
            probe = np.union1d(np.linspace(1e-6, 1.0 - 1e-6, 2049),
                               np.clip(sol.breakpoints[1:-1], 1e-6, 1.0 - 1e-6))
            assert sup >= float(np.max(sol.values(probe) ** 2 / w(probe)))


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

    def test_incommensurable_path_raises_before_allocating(self):
        # lcm(4096, 4095) = 16,773,120 cells: 134 MB per repeated density
        spec = PerturbationSpec(Potential.constant(1.0, 4096),
                                Potential.constant(1.0, 4095), 0.0,
                                ConstantWeight(1.0))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidPotentialError, match="incommensurable"):
                perturbation_path(spec, 1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_commensurable_path_repeats_cells(self, rng):
        base = Potential(48, rng.uniform(0.3, 1.5, 48), ((0.3, 0.5),))
        p = Potential(32, rng.uniform(0.0, 1.5, 32), ((0.7, 0.25),))
        eps, alpha = 1e-3, 0.4
        got = perturbation_path(PerturbationSpec(base, p, alpha, ConstantWeight(1.0)),
                                eps)
        scale = 1.0 / (1.0 + alpha * eps)
        want = ((1.0 - eps) * np.repeat(base.density, 2)
                + eps * np.repeat(p.density, 3)) * scale
        assert got.grid_n == 96
        assert np.array_equal(got.density, want)
        assert got.atoms == ((0.3, (1.0 - eps) * 0.5 * scale), (0.7, eps * 0.25 * scale))

    @pytest.mark.parametrize(
        "w", [ConstantWeight(0.7), PowerWeight(1.0, 1.5), PowerWeight(0.4644, 3.7)]
    )
    def test_alpha_bound_matches_piece_loop(self, w):
        rng = np.random.default_rng(7)
        for n_base, n_p in ((64, 64), (48, 64), (100, 30)):
            base = Potential(n_base, rng.uniform(0.0, 2.0, n_base))
            dens = rng.uniform(0.0, 1.5, n_p)
            dens[rng.uniform(size=n_p) < 0.3] = 0.0
            p = Potential(n_p, dens, ((0.37, 0.2),) if n_p == 30 else ())
            for gamma in (1.5, 2.0, 3.0):
                got = alpha_lower_bound(w, gamma, base, p)
                ref = alpha_lower_bound_loop(w, gamma, base, p)
                if isinstance(w, ConstantWeight):
                    assert got == ref
                else:
                    # relative to the pairing, which is ref + 1
                    assert abs(got - ref) <= 1e-14 * (ref + 1.0)

    def test_alpha_bound_power_weight_faster_than_piece_loop(self):
        # the per-piece loop with the cheapest weight is a lower bound on
        # what a power weight cost when every piece took a scalar integral
        rng = np.random.default_rng(8)
        base = Potential(4096, rng.uniform(0.5, 2.0, 4096))
        p = Potential(4096, rng.uniform(0.0, 1.5, 4096))

        def best(f, repeats):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                f()
                times.append(time.perf_counter() - t0)
            return min(times)

        vec = best(lambda: alpha_lower_bound(PowerWeight(1.0, 1.5), 2.0, base, p), 5)
        loop = best(
            lambda: alpha_lower_bound_loop(ConstantWeight(1.0), 2.0, base, p), 3
        )
        assert vec < loop

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


def _atom_pair():
    q = Potential.from_atoms([(0.4, 2.0)], 16)
    return q, eigenfunction(q, eigenvalue(q, 0), 0)


def _spec(alpha):
    q = Potential.constant(1.0, 16)
    return PerturbationSpec(base=q, direction=q, alpha=alpha,
                            weight=ConstantWeight(1.0))


@pytest.mark.parametrize("call, error, match", [
    (lambda: characterization_residual(ConstantWeight(1.0), 0.5, *_atom_pair()),
     ParameterError, "gamma"),
    (lambda: characterization_residual(ConstantWeight(1.0), 2.0, *_atom_pair()),
     InvalidPotentialError, "atom-free"),
    (lambda: directional_derivative(_spec(0.0), 0.5), ParameterError, "gamma"),
    (lambda: perturbation_path(_spec(-2.0), 0.5), ParameterError, "admissible range"),
], ids=["residual-gamma", "residual-atoms", "derivative-gamma", "path-scale"])
def test_public_calls_refuse_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("weight", ["const:0.3", "power:1.5,1.25"])
def test_alpha_lower_bound_at_gamma_one_is_the_constraint(weight):
    # atoms included: at gamma = 1 the bound does not look at the base
    w = parse_weight(weight)
    p = Potential(16, np.linspace(0.0, 2.0, 16), ((0.3, 1.5), (0.62, 0.25)))
    base = Potential.constant(3.0, 32)
    assert alpha_lower_bound(w, 1.0, base, p) == constraint_value(w, 1.0, p) - 1.0

