import math

import numpy as np
import pytest

from slmajorant import (
    ConstantWeight,
    DomainError,
    ParameterError,
    Potential,
    ShootingSolution,
    convex_combination,
    eigenfunction,
    eigenvalue,
    energy_form,
    gap_lower_bound,
    pencil_form,
    prufer_phase,
    seminorm,
    upper_bound,
)
from slmajorant import _propagate as prop
from conftest import PI2, centered_atom_lambda, non_dyadic_potential, random_potential


class TestPruferPhase:
    def test_free_particle_first(self):
        assert prufer_phase(Potential.zero(), PI2) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_free_particle_second(self):
        assert prufer_phase(Potential.zero(), 4 * PI2) == pytest.approx(
            2 * math.pi, abs=1e-12
        )

    def test_atom_brackets_transcendental_root(self):
        q = Potential.from_atoms([(0.5, 1.0)])
        assert prufer_phase(q, 11.0) < math.pi
        assert prufer_phase(q, 12.5) > math.pi

    def test_monotone_in_lambda(self, rng):
        for _ in range(10):
            q = random_potential(rng, grid_n=32, max_atoms=2)
            lams = np.linspace(1.0, 400.0, 40)
            phases = [prufer_phase(q, lam) for lam in lams]
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
        with pytest.raises(ParameterError):
            eigenvalue(Potential.zero(), -1)
        with pytest.raises(ParameterError):
            eigenvalue(Potential.zero(), 33)
        with pytest.raises(ParameterError):
            eigenvalue(Potential.zero(), 0, tol=-1.0)

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


class TestEnergyAndPencil:
    def test_rayleigh_identity_free(self):
        q = Potential.zero(2048)
        xs = q.edges()
        y = math.sqrt(2.0) * np.sin(math.pi * xs)
        assert energy_form(q, y, y) == pytest.approx(PI2, rel=1e-6)

    def test_atom_pairing(self):
        q = Potential.from_atoms([(0.5, 2.0)], 64)
        xs = q.edges()
        y = np.sin(math.pi * xs)
        kinetic = float(np.sum(np.diff(y) ** 2) * 64)
        assert energy_form(q, y, y) == pytest.approx(
            kinetic + 2.0 * np.interp(0.5, xs, y) ** 2, rel=1e-12
        )

    def test_symmetry(self, rng):
        q = random_potential(rng, grid_n=32, max_atoms=2)
        xs = q.edges()
        y = np.concatenate(([0.0], rng.uniform(-1, 1, 31), [0.0]))
        z = np.concatenate(([0.0], rng.uniform(-1, 1, 31), [0.0]))
        assert energy_form(q, y, z) == pytest.approx(energy_form(q, z, y), rel=1e-14)

    def test_boundary_samples_rejected(self):
        q = Potential.zero(8)
        y = np.ones(9)
        with pytest.raises(DomainError):
            energy_form(q, y, y)

    def test_pencil_fd_mode_vanishes_at_eigenpair(self):
        q = Potential.constant(3.0, 4096)
        lam = eigenvalue(q, 0, 1e-12)
        y = math.sqrt(2.0) * np.sin(math.pi * q.edges())
        assert abs(pencil_form(q, lam, y)) <= 1e-6 * lam

    def test_pencil_positive_at_lambda_zero(self, rng):
        q = Potential.zero(32)
        y = np.concatenate(([0.0], rng.uniform(0.1, 1, 31), [0.0]))
        assert pencil_form(q, 0.0, y) > 0.0

    @pytest.mark.parametrize("grid_n", [48, 100])
    def test_pencil_exact_mode_residual(self, rng, grid_n):
        for _ in range(5):
            q = random_potential(rng, grid_n=grid_n, max_atoms=2)
            for n in (0, 2):
                lam = eigenvalue(q, n, 1e-12)
                pair = eigenfunction(q, lam, n)
                assert abs(pencil_form(q, lam, pair)) <= 1e-8

    def test_pencil_exact_rejects_pair_on_another_mesh(self):
        q = Potential.constant(1.0, 32)
        pair = eigenfunction(q, eigenvalue(q, 0), 0)
        with pytest.raises(DomainError):
            pencil_form(Potential.constant(1.0, 48), pair.lam, pair)


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
