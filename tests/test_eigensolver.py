import math
import warnings

import numpy as np
import pytest

from slmajorant import (
    ConstantWeight,
    DomainError,
    ParameterError,
    Potential,
    ShootingSolution,
    characterization_residual,
    convex_combination,
    eigenfunction,
    eigenvalue,
    gap_lower_bound,
    pencil_form,
    seminorm,
    upper_bound,
)
from slmajorant import _propagate as prop
from slmajorant import measures as ms
from conftest import PI2, centered_atom_lambda, non_dyadic_potential, random_potential
from reference import sq_integrals_ref


def _theta(q: Potential, lam: float) -> float:
    """Pruefer angle theta(1; lam) of q, swept on its fused mesh."""
    return prop.phase(*q.fused_mesh[1:], lam)


class TestPruferPhase:
    def test_free_particle_first(self):
        assert _theta(Potential.zero(), PI2) == pytest.approx(math.pi, abs=1e-12)

    def test_free_particle_second(self):
        assert _theta(Potential.zero(), 4 * PI2) == pytest.approx(
            2 * math.pi, abs=1e-12
        )

    def test_atom_brackets_transcendental_root(self):
        q = Potential.from_atoms([(0.5, 1.0)])
        assert _theta(q, 11.0) < math.pi
        assert _theta(q, 12.5) > math.pi

    def test_monotone_in_lambda(self, rng):
        for _ in range(10):
            q = random_potential(rng, grid_n=32, max_atoms=2)
            lams = np.linspace(1.0, 400.0, 40)
            phases = [_theta(q, lam) for lam in lams]
            assert all(b > a for a, b in zip(phases, phases[1:]))


class TestEigenvalue:
    def test_free_particle_exact(self):
        q = Potential.zero()
        for n in range(11):
            lam = eigenvalue(q, n, 1e-12)
            exact = PI2 * (n + 1) ** 2
            assert abs(lam - exact) <= 1e-9 * exact

    @pytest.mark.parametrize("c", [1.0, 10.0, 100.0])
    def test_constant_shift_covariance(self, c):
        q0 = Potential.zero(16)
        qc = Potential.constant(c, 16)
        for n in (0, 1, 4):
            lam0 = eigenvalue(q0, n, 1e-12)
            lamc = eigenvalue(qc, n, 1e-12)
            assert lamc == pytest.approx(lam0 + c, rel=1e-9)

    def test_central_atom_transcendental(self):
        q = Potential.from_atoms([(0.5, 1.0)])
        lam = eigenvalue(q, 0, 1e-13)
        assert lam == pytest.approx(centered_atom_lambda(1.0), rel=1e-12)

    def test_ordering_strict(self, rng):
        for _ in range(10):
            q = random_potential(rng, grid_n=48, max_atoms=2)
            lams = [eigenvalue(q, n) for n in range(5)]
            assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_monotone_in_potential(self, rng):
        for _ in range(10):
            q1 = random_potential(rng, grid_n=32, max_atoms=1)
            bump = rng.uniform(0.0, 1.0, 32)
            q2 = Potential(
                32, q1.density + bump, tuple((p, m + 0.1) for p, m in q1.atoms)
            )
            for n in (0, 2):
                assert eigenvalue(q1, n) <= eigenvalue(q2, n) + 1e-9

    def test_midpoint_concavity_spot(self, rng):
        for _ in range(10):
            q1 = random_potential(rng, grid_n=32)
            q2 = random_potential(rng, grid_n=32)
            avg = convex_combination(q1, q2, 0.5)
            lhs = eigenvalue(avg, 0)
            rhs = 0.5 * (eigenvalue(q1, 0) + eigenvalue(q2, 0))
            assert lhs >= rhs - 1e-9

    def test_index_validation(self):
        # 0.5 once gave the lam where theta = 1.5 pi, True lambda_1, and
        # tol = inf the bracket's lower end
        q = Potential(16, np.ones(16))
        for n in (-3, -1, 33, 0.5, True, np.float64(1.0)):
            for fn in (eigenvalue, upper_bound, gap_lower_bound):
                with pytest.raises(ParameterError, match="index"):
                    fn(q, n)
        for tol in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match="tolerance"):
                eigenvalue(q, 0, tol=tol)
        assert eigenvalue(q, np.int64(1)) == eigenvalue(q, 1)

    def test_continuity_of_inverse(self):
        # a perturbation small in the level-ell seminorm moves 1/lambda_n
        # by at most 2**(1-ell)
        base = Potential.constant(5.0, 64)
        for ell in (4, 6, 8):
            a = 2.0 ** (-ell)
            length = 1.0 - 2.0 * a
            # constant perturbation scaled to 90% of the admissible size
            c = 0.9 * (2.0 ** (-ell - 1) * PI2) * 2.0 * math.sqrt(3.0) / length**1.5
            pert = Potential.constant(5.0 + c, 64)
            assert seminorm(Potential.constant(c, 64), ell) <= 2.0 ** (-ell - 1) * PI2
            for n in (0, 1, 3):
                gap = abs(1.0 / eigenvalue(pert, n) - 1.0 / eigenvalue(base, n))
                assert gap <= 2.0 ** (-ell + 1)


class TestEigenfunction:
    def test_free_particle_modes(self):
        q = Potential.zero(64)
        for n in (0, 1, 3):
            lam = eigenvalue(q, n, 1e-12)
            pair = eigenfunction(q, lam, n)
            exact = math.sqrt(2.0) * np.sin((n + 1) * math.pi * pair.xs)
            assert np.max(np.abs(pair.ys - exact)) < 1e-12

    def test_interior_zero_count(self, rng):
        for n in (0, 1, 2, 4):
            q = random_potential(rng, grid_n=32, max_atoms=1)
            pair = eigenfunction(q, eigenvalue(q, n), n)
            signs = np.sign(pair.ys[np.abs(pair.ys) > 1e-9])
            assert int(np.sum(signs[:-1] != signs[1:])) == n

    def test_ground_state_nonnegative(self, rng):
        # the endpoint samples are zero only up to the eigenvalue residual
        q = random_potential(rng, grid_n=32, max_atoms=2)
        pair = eigenfunction(q, eigenvalue(q, 0, 1e-12), 0)
        assert np.all(pair.ys >= -1e-9)
        assert np.all(pair.ys[1:-1] > 0.0)

    def test_unit_norm(self, rng):
        q = random_potential(rng, grid_n=32, max_atoms=2)
        lam = eigenvalue(q, 0)
        sol = ShootingSolution(q, lam)
        assert sol.square_mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_atom_kink_and_symmetry(self):
        q = Potential.from_atoms([(0.5, 1.0)], 64)
        lam = eigenvalue(q, 0, 1e-13)
        pair = eigenfunction(q, lam, 0)
        k = int(np.searchsorted(pair.xs, 0.5))
        jump = pair.dys_right[k] - pair.dys_left[k]
        assert jump == pytest.approx(1.0 * pair.ys[k], abs=1e-8)
        # reflection symmetry about the atom
        ys_rev = pair.ys[::-1]
        assert np.max(np.abs(pair.ys - ys_rev)) < 1e-9

    def test_samples_match_shooting_solution_on_non_dyadic_grid(self):
        q = non_dyadic_potential()
        lam = eigenvalue(q, 0, 1e-12)
        pair = eigenfunction(q, lam, 0)
        sol = ShootingSolution(q, lam)
        scale = float(np.max(np.abs(pair.ys)))
        assert np.max(np.abs(pair.ys - sol.values(pair.xs))) <= 1e-9 * scale

    def test_index_mismatch_detected(self):
        q = Potential.zero()
        lam0 = eigenvalue(q, 0)
        from slmajorant import InternalSolverError

        with pytest.raises(InternalSolverError):
            eigenfunction(q, lam0, 1)

    @pytest.mark.parametrize("n", [-1, 33, 0.5, True])
    def test_index_outside_the_contract_is_refused(self, n):
        q = Potential(16, np.ones(16))
        lam = eigenvalue(q, 0) if n != 0.5 else 23.2066   # theta = 1.5 pi
        with pytest.raises(ParameterError, match=r"index must lie in \[0, 32\]"):
            eigenfunction(q, lam, n)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_a_lambda_that_is_not_finite_is_refused(self, lam):
        # NaN once gave an all-NaN pair, and +-inf a bare math domain error
        q = Potential(16, np.zeros(16), ((0.3, 2.0),))
        for call in (eigenfunction, lambda q, lam, n: ShootingSolution(q, lam)):
            with pytest.raises(DomainError, match="is not finite"):
                call(q, lam, 0)

    def test_a_nan_eigenvalue_fails_the_pair_check(self):
        from slmajorant import EigenPair, InternalSolverError

        xs = np.linspace(0.0, 1.0, 3)
        with pytest.raises(InternalSolverError, match="below the trivial bound"):
            EigenPair(0, math.nan, xs, xs, xs, xs)

    def test_steep_phase_next_to_a_late_barrier(self):
        # forward shooting meets the barrier on cells 58-59 late, so the
        # phase climbs by about pi within a relative 2e-10 of lambda_0 and
        # brentq's lambda_0 misses pi by more than 1e-2; the phase still
        # crosses pi within the 1e-9 window, so this is the index-0 pair
        from slmajorant import InternalSolverError

        dens = np.zeros(64)
        dens[58:60] = 1e5
        q = Potential(64, dens)
        lam0, lam1 = eigenvalue(q, 0), eigenvalue(q, 1)
        assert abs(_theta(q, lam0) - math.pi) > 1e-2
        pair = eigenfunction(q, lam0, 0)
        assert np.all(pair.ys >= -1e-4 * np.max(pair.ys))
        assert pencil_form(q, lam0, pair) == pytest.approx(0.0, abs=1e-6 * lam0)
        with pytest.raises(InternalSolverError):
            eigenfunction(q, lam1, 0)


class TestEnergyAndPencil:
    @pytest.mark.parametrize("grid_n", [48, 100])
    def test_pencil_exact_mode_residual(self, rng, grid_n):
        for _ in range(5):
            q = random_potential(rng, grid_n=grid_n, max_atoms=2)
            for n in (0, 2):
                lam = eigenvalue(q, n, 1e-12)
                pair = eigenfunction(q, lam, n)
                assert abs(pencil_form(q, lam, pair)) <= 1e-8

    def test_pencil_exact_scales_barrier_cells(self):
        # cells past BIG_ARG carry a log-scale in their basis integrals
        dens = np.zeros(64)
        dens[20:41] = 1e8
        q = Potential(64, dens)
        lam = eigenvalue(q, 0)
        pair = eigenfunction(q, lam, 0)
        assert abs(pencil_form(q, lam, pair)) <= 1e-8 * lam
        for gamma in (1.0, 2.0):
            assert math.isfinite(
                characterization_residual(ConstantWeight(1.0), gamma, q, pair))

    def test_characterization_refuses_an_unassembled_pencil(self):
        # one node cell with kappa h = 1250, where exp of its log-scale
        # overflows and the exact pencil form comes out NaN
        dens = np.zeros(8)
        dens[3:5] = 1e8
        q = Potential(8, dens)
        lam = eigenvalue(q, 0)
        pair = eigenfunction(q, lam, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                characterization_residual(ConstantWeight(1.0), 2.0, q, pair)

    def test_pencil_exact_rejects_pair_on_another_mesh(self):
        q = Potential.constant(1.0, 32)
        pair = eigenfunction(q, eigenvalue(q, 0), 0)
        with pytest.raises(DomainError):
            pencil_form(Potential.constant(1.0, 48), pair.lam, pair)

    def test_pencil_form_takes_an_eigenpair_only(self):
        # node samples, even on the 9 nodes of 8 cells, are not a pair
        with pytest.raises(TypeError, match="EigenPair"):
            pencil_form(Potential.zero(8), PI2, np.zeros(9))


class TestMeshes:
    @staticmethod
    def _potential(grid_n):
        # five runs of equal density; atoms on a run end, on a node inside
        # a run, and inside a cell
        dens = 1.0 + 3.0 * ((5 * np.arange(grid_n)) // grid_n)
        ends = [j for j in range(1, grid_n) if dens[j] != dens[j - 1]]
        inner = ends[2] - 1 if ends[2] - 1 > ends[1] else ends[2] + 1
        atoms = ((ends[0] / grid_n, 0.7), (inner / grid_n, 1.3),
                 ((ends[3] + 0.37) / grid_n, 2.1))
        return Potential(grid_n, dens, atoms)

    @pytest.mark.parametrize("grid_n", [7, 16, 100, 333])
    def test_fused_mesh_is_a_coarsening_of_the_node_mesh(self, grid_n):
        q = self._potential(grid_n)
        fxs, flens, fqs, fmasses = prop.build_segments(q.grid_n, q.density, q.atoms)
        nxs, nlens, nqs, nmasses = prop.node_mesh(q.grid_n, q.density, q.atoms)
        assert len(fxs) < len(nxs)
        assert np.all(np.isin(fxs, nxs))
        assert np.all(np.isin([p for p, _ in q.atoms], fxs))
        for lam in (5.0, 50.0, 400.0):
            assert prop.phase(flens, fqs, fmasses, lam) == pytest.approx(
                prop.phase(nlens, nqs, nmasses, lam), abs=1e-12
            )


    def test_fused_mesh_is_built_once_and_read_only(self):
        # a short mesh is tuples, a mesh the scan sweeps read-only arrays
        for q, form, error in ((self._potential(100), tuple, TypeError),
                               (self._potential(600), tuple, TypeError),
                               (Potential(600, np.arange(600.0)), np.ndarray,
                                ValueError)):
            mesh = q.fused_mesh
            assert q.fused_mesh is mesh
            ref = prop.build_segments(q.grid_n, q.density, q.atoms)
            for got, want in zip(mesh, ref):
                assert type(got) is form
                assert np.array_equal(got, want)
                with pytest.raises(error):
                    got[0] = 1.0
            xs = ShootingSolution(q, 50.0).breakpoints
            assert np.array_equal(xs, mesh[0])
            assert (xs is mesh[0]) == (form is np.ndarray)


class TestShootingPair:
    def test_constant_density_on_another_grid(self, rng):
        # y^2 has unit mass, so a constant density c pairs to c
        for _ in range(5):
            q = random_potential(rng, grid_n=32, max_atoms=2)
            sol = ShootingSolution(q, eigenvalue(q, 0))
            c = float(rng.uniform(0.5, 5.0))
            assert sol.pair(Potential.constant(c, 48)) == pytest.approx(
                c, abs=1e-12
            )

    def test_atoms_only(self, rng):
        q = random_potential(rng, grid_n=32, max_atoms=2)
        sol = ShootingSolution(q, eigenvalue(q, 0))
        v = Potential.from_atoms([(0.3, 1.5), (0.71, 0.4)], 16)
        expected = sum(m * float(sol.values([p])[0]) ** 2 for p, m in v.atoms)
        assert sol.pair(v) == pytest.approx(expected, rel=1e-14)

    def test_one_values_call_equals_the_per_atom_sum(self, rng):
        # the atoms' y**2 come from one values() call, and give the same
        # floats as one call per atom
        for _ in range(40):
            q = random_potential(rng, grid_n=16, max_density=20.0, max_atoms=3)
            sol = ShootingSolution(q, eigenvalue(q, 0))
            k = int(rng.integers(1, 6))
            v = Potential(16, rng.uniform(0.0, 3.0, 16),
                          tuple(zip(np.sort(rng.uniform(0.01, 0.99, k)).tolist(),
                                    rng.uniform(0.1, 5.0, k).tolist())))
            want = float(np.dot(v.density, sol.cell_square_masses(v.edges())))
            for pos, mass in v.atoms:
                want += mass * float(sol.values([pos])[0]) ** 2
            assert sol.pair(v) == want

    def test_atom_free_matches_cell_masses(self, rng):
        q = random_potential(rng, grid_n=40, max_atoms=0)
        assert not q.atoms
        sol = ShootingSolution(q, eigenvalue(q, 0))
        assert sol.pair(q) == float(
            np.dot(q.density, sol.cell_square_masses(q.edges()))
        )


class TestSpectralBounds:
    def test_upper_bound_free(self):
        q = Potential.zero()
        assert upper_bound(q, 0) == pytest.approx(4 * PI2, rel=1e-15)
        assert upper_bound(q, 2) == pytest.approx(36 * PI2, rel=1e-15)

    def test_upper_bound_atom(self):
        q = Potential.from_atoms([(0.5, 1.0)])
        expected = 4 * PI2 * (1.0 + 2.0 / (2.0 * math.sqrt(2.0)))
        assert upper_bound(q, 0) == pytest.approx(expected, rel=1e-14)

    def test_upper_bound_dominates(self, rng):
        for _ in range(20):
            q = random_potential(rng, grid_n=48, max_atoms=2)
            for n in (0, 1, 3, 5):
                assert eigenvalue(q, n) <= upper_bound(q, n)

    def test_gap_bound_free(self):
        bound, ell = gap_lower_bound(Potential.zero(), 0)
        assert ell == 6
        assert bound == pytest.approx(2.0**-6, rel=1e-15)
        bound, ell = gap_lower_bound(Potential.zero(), 3)
        assert ell == 9
        assert bound == pytest.approx(2.0**-9, rel=1e-15)

    def test_gap_bound_vs_solver(self):
        # bump potential: value 5 on [0.4, 0.6]
        dens = np.zeros(20)
        dens[8:12] = 5.0
        q = Potential(20, dens)
        lam0, lam1 = eigenvalue(q, 0), eigenvalue(q, 1)
        bound, _ = gap_lower_bound(q, 0)
        assert lam1 - lam0 >= bound

    def test_seminorm_2_is_computed_once_per_potential(self, rng, monkeypatch):
        # every cold solve's upper_bound, and upper_bound and gap_lower_bound
        # of every index, read one seminorm(q, 2)
        q = random_potential(rng, grid_n=64, max_atoms=1)
        want = seminorm(q, 2)
        levels = []
        original = ms.seminorm

        def counted(q, ell):
            levels.append(ell)
            return original(q, ell)

        monkeypatch.setattr(ms, "seminorm", counted)
        lams = [eigenvalue(q, n) for n in range(4)]
        for n in range(3):
            assert lams[n] <= upper_bound(q, n)
            gap_lower_bound(q, n)
        assert levels == [2] and q.seminorm_2 == want

    def test_gap_bound_random(self, rng):
        for _ in range(15):
            q = random_potential(rng, grid_n=48, max_atoms=0)
            for n in (0, 2, 4):
                gap = eigenvalue(q, n + 1) - eigenvalue(q, n)
                bound, _ = gap_lower_bound(q, n)
                assert gap >= bound


class TestOverflowGuard:
    def test_huge_barrier_no_overflow(self):
        import warnings

        dens = np.zeros(16)
        dens[7:9] = 1e12
        q = Potential(16, dens, ((0.2, 1e7),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = eigenvalue(q, 0, 1e-10)
            pair = eigenfunction(q, lam, 0)
        assert math.isfinite(lam)
        assert np.all(np.isfinite(pair.ys))
        sol = ShootingSolution(q, lam)
        assert sol.square_mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [-1e300, -1e307, -1e308])
    def test_shooting_far_below_the_spectrum_is_refused(self, lam):
        # q - lam is so large on every segment that the shooting solution's
        # y**2 integral underflows (at -1e308, 2 (q - lam) would overflow)
        q = Potential(16, np.zeros(16), ((0.3, 2.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too far below the potential"):
                ShootingSolution(q, lam)

    def test_shooting_down_to_minus_1e200_keeps_its_bits(self, monkeypatch):
        # the halved Iss numerator gives the floats of (sc - te) / (2 d)
        q = Potential(16, np.zeros(16), ((0.3, 2.0),))
        lams = (-1e200, -1e100, -1e20, -1.0, 0.0, eigenvalue(q, 0))
        points = np.linspace(0.0, 1.0, 41)

        def evaluate():
            out = []
            for lam in lams:
                sol = ShootingSolution(q, lam)
                out += [sol.values(points), sol.cell_square_masses(q.edges())]
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate()
            monkeypatch.setattr(prop, "sq_integrals", sq_integrals_ref)
            want = evaluate()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
