import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from slmajorant import (
    Bins,
    ConstantWeight,
    DomainError,
    InvalidPotentialError,
    ParameterError,
    Potential,
    PowerWeight,
    TableWeight,
    bin_project,
    constraint_value,
    convex_combination,
    parse_weight,
    potential_from_dict,
    potential_to_dict,
    primitive,
    seminorm,
    weight_eval,
)
from conftest import (
    dual_seminorm_oracle,
    non_dyadic_potential,
    pl_pairing,
    random_potential,
)


class TestWeightEval:
    def test_constant(self):
        assert weight_eval(ConstantWeight(1.0), 0.3) == 1.0

    def test_power(self):
        assert weight_eval(PowerWeight(1, 1), 0.5) == 0.25

    def test_table_interpolation(self):
        w = TableWeight((0.25, 0.75), (2.0, 4.0))
        assert weight_eval(w, 0.5) == pytest.approx(3.0, abs=1e-15)

    def test_table_flat_extension(self):
        w = TableWeight((0.25, 0.75), (2.0, 4.0))
        assert weight_eval(w, 0.01) == 2.0
        assert weight_eval(w, 0.99) == 4.0

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 2.0])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            weight_eval(ConstantWeight(1.0), x)

    def test_invalid_weights(self):
        with pytest.raises(ParameterError):
            ConstantWeight(-1.0)
        with pytest.raises(ParameterError):
            PowerWeight(-0.5, 0.0)
        with pytest.raises(ParameterError):
            TableWeight((0.5, 0.25), (1.0, 1.0))
        with pytest.raises(ParameterError):
            TableWeight((0.25, 0.75), (1.0, -1.0))

    def test_literal_round_trip(self):
        for w in (ConstantWeight(2.5), PowerWeight(1.0, 2.0),
                  TableWeight((0.25, 0.75), (2.0, 4.0))):
            w2 = parse_weight(w.literal())
            assert type(w2) is type(w)
            for x in (0.1, 0.5, 0.9):
                assert w2(x) == pytest.approx(w(x), rel=1e-15)


class TestConstraintValue:
    def test_unit_constant(self):
        assert constraint_value(ConstantWeight(1.0), 1.0, Potential.constant(1.0)) == (
            pytest.approx(1.0, abs=1e-15)
        )

    def test_square_of_constant(self):
        c = 3.0
        got = constraint_value(ConstantWeight(1.0), 2.0, Potential.constant(c))
        assert got == pytest.approx(c * c, rel=1e-15)

    def test_parabolic_weight_quadrature_oracle(self):
        # 6 * integral of x(1-x) equals one; cross-checked by quadrature
        w = PowerWeight(1, 1)
        q = Potential.constant(6.0, 64)
        got = constraint_value(w, 1.0, q)
        ref, _ = integrate.quad(lambda x: x * (1 - x) * 6.0, 0, 1, epsabs=1e-14)
        assert got == pytest.approx(1.0, abs=1e-13)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_atoms_at_gamma_one(self):
        w = TableWeight((0.25, 0.75), (2.0, 4.0))
        q = Potential.from_atoms([(0.5, 2.0)])
        assert constraint_value(w, 1.0, q) == pytest.approx(6.0, rel=1e-15)

    def test_atoms_rejected_above_gamma_one(self):
        q = Potential.from_atoms([(0.5, 1.0)])
        with pytest.raises(InvalidPotentialError):
            constraint_value(ConstantWeight(1.0), 2.0, q)

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ParameterError):
            constraint_value(ConstantWeight(1.0), 0.5, Potential.zero())


class TestPrimitive:
    def test_zero(self):
        p = primitive(Potential.zero(8))
        for x in (0.1, 0.5, 0.9):
            assert p(x) == 0.0

    def test_unit_slope(self):
        p = primitive(Potential.constant(1.0, 8))
        for x in (0.125, 0.3, 0.75):
            assert p(x) == pytest.approx(x, abs=1e-15)

    def test_atom_step(self):
        p = primitive(Potential.from_atoms([(0.5, 2.0)], 8))
        assert p(0.25) == 0.0
        assert p(0.5) == 0.0          # left-continuous at the jump
        assert p.value_right(0.5) == 2.0
        assert p(0.75) == 2.0
        assert p(1.0) == 2.0

    def test_nondecreasing(self, rng):
        q = random_potential(rng, grid_n=32, max_atoms=2)
        p = primitive(q)
        xs = np.linspace(0.001, 0.999, 500)
        vals = [p(x) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_pairing_consistency(self, rng):
        # -integral(Q y') agrees with the direct density/atom pairing
        for _ in range(25):
            q = random_potential(rng, grid_n=48, max_atoms=2)
            nodes = np.linspace(0.1, 0.9, 17)
            vals = np.concatenate(([0.0], rng.uniform(-1, 1, 15), [0.0]))
            via_primitive = primitive(q).pair(nodes, vals)
            direct = pl_pairing(q, nodes, vals)
            assert via_primitive == pytest.approx(direct, abs=1e-10)


class TestSeminorm:
    def test_zero(self):
        assert seminorm(Potential.zero(), 2) == 0.0
        assert seminorm(Potential.zero(), 7) == 0.0

    def test_central_atom_closed_form(self):
        m = 1.7
        q = Potential.from_atoms([(0.5, m)])
        assert seminorm(q, 2) == pytest.approx(m / (2 * math.sqrt(2)), rel=1e-14)

    def test_constant_closed_form(self):
        c = 3.0
        q = Potential.constant(c, 64)
        assert seminorm(q, 2) == pytest.approx(c / (4 * math.sqrt(6)), rel=1e-14)

    def test_level_validation(self):
        with pytest.raises(ParameterError):
            seminorm(Potential.zero(), 1)

    def test_non_dyadic_grid_matches_trapezoid_reference(self):
        # Q from the cell masses, integrated by the trapezoid rule; the
        # dual oracle cannot serve here, its mesh misses the 1/100 nodes
        q = non_dyadic_potential()
        nodes_q = np.concatenate(([0.0], np.cumsum(q.density / q.grid_n)))
        x = np.linspace(0.25, 0.75, 2_000_001)
        qx = np.interp(x, q.edges(), nodes_q)
        i1 = integrate.trapezoid(qx, x)
        i2 = integrate.trapezoid(qx * qx, x)
        ref = math.sqrt(i2 - i1 * i1 / 0.5)
        assert seminorm(q, 2) == pytest.approx(ref, rel=1e-8)

    def test_matches_discretized_dual(self, rng):
        # closed form vs the 2048-interval dual program, 50 seeded cases
        worst = 0.0
        for _ in range(50):
            q = random_potential(rng, grid_n=64, max_atoms=2)
            closed = seminorm(q, 2)
            dual = dual_seminorm_oracle(q, 2)
            worst = max(worst, abs(closed - dual) / closed)
        assert worst < 1e-6


class TestBinProject:
    def test_fixed_point_on_aligned_bins(self, rng):
        w = ConstantWeight(1.0)
        bins = Bins.uniform(2, 8)  # boundaries at 1/4 + k/16, align with 64 cells
        vals = np.repeat(rng.uniform(0.1, 2.0, 8), 8)
        dens = np.zeros(64)
        dens[16:48] = np.repeat(rng.uniform(0.1, 2.0, 8), 4)
        q = Potential(64, dens)
        qt = bin_project(q, w, 2.0, bins)
        qtt = bin_project(qt, w, 2.0, bins)
        assert np.max(np.abs(qt.density - qtt.density)) <= 1e-12

    def test_linear_density_two_bins(self):
        # q(x) = 2x against two half-interval bins, gamma = 2, r constant
        q = Potential.from_callable(lambda x: 2.0 * x, 4096)
        qt = bin_project(q, ConstantWeight(1.0), 2.0, Bins(np.array([0.0, 0.5, 1.0])))
        assert qt.density[0] == pytest.approx(0.5, rel=1e-12)
        assert qt.density[-1] == pytest.approx(1.5, rel=1e-12)
        w = ConstantWeight(1.0)
        assert constraint_value(w, 2.0, qt) == pytest.approx(1.25, rel=1e-12)
        assert constraint_value(w, 2.0, qt) <= constraint_value(w, 2.0, q)

    @pytest.mark.parametrize(
        "w,gamma",
        [
            (ConstantWeight(1.0), 1.0),
            (ConstantWeight(1.0), 2.0),
            (PowerWeight(1, 1), 1.5),
            (PowerWeight(1, 1), 3.0),
        ],
    )
    def test_moment_matching_aligned(self, rng, w, gamma):
        bins = Bins.uniform(2, 8)
        p = 1.0 / gamma
        for _ in range(10):
            q = random_potential(rng, grid_n=64)
            qt = bin_project(q, w, gamma, bins)
            for k in range(bins.count):
                lo, hi = bins.boundaries[k], bins.boundaries[k + 1]
                i0, i1 = int(round(lo * 64)), int(round(hi * 64))
                edges = np.arange(i0, i1 + 1) / 64.0
                cr = w.cell_pow_integrals(edges, p)
                moment = np.dot(cr, q.density[i0:i1] - qt.density[i0:i1])
                assert abs(moment) <= 1e-10

    @pytest.mark.parametrize("w", [ConstantWeight(1.0), PowerWeight(1, 1)])
    @pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0])
    def test_constraint_contraction(self, rng, w, gamma):
        bins = Bins.uniform(2, 8)
        for _ in range(12):
            q = random_potential(rng, grid_n=64)
            qt = bin_project(q, w, gamma, bins)
            assert constraint_value(w, gamma, qt) <= (
                constraint_value(w, gamma, q) + 1e-12
            )

    def test_atoms_rejected(self):
        q = Potential.from_atoms([(0.5, 1.0)])
        with pytest.raises(InvalidPotentialError):
            bin_project(q, ConstantWeight(1.0), 2.0, Bins.uniform(2, 4))

    def test_dropped_mass_warns(self):
        q = Potential.constant(1.0, 64)  # half the mass lies outside
        with pytest.warns(UserWarning, match="drops"):
            bin_project(q, ConstantWeight(1.0), 2.0, Bins.uniform(2, 8))

    def test_bins_validation(self):
        with pytest.raises(ParameterError):
            Bins(np.array([0.5]))
        with pytest.raises(ParameterError):
            Bins(np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            Bins.uniform(1, 4)
        bins = Bins.uniform(2, 4)
        with pytest.raises(ParameterError):
            bins.check_max_length(0.1)  # bins of length 1/8 exceed 0.01
        bins.check_max_length(0.5)


class TestConvexCombination:
    def test_identity(self, rng):
        q = random_potential(rng, grid_n=32, max_atoms=2)
        mid = convex_combination(q, q, 0.5)
        assert np.allclose(mid.density, q.density, rtol=0, atol=1e-15)
        assert mid.atoms == q.atoms

    def test_endpoint(self, rng):
        q = random_potential(rng, grid_n=32, max_atoms=1)
        same = convex_combination(q, Potential.zero(32), 0.0)
        assert np.array_equal(same.density, q.density)
        assert same.atoms == q.atoms

    def test_affine_arithmetic(self):
        got = convex_combination(
            Potential.constant(2.0, 16), Potential.constant(4.0, 16), 0.25
        )
        assert np.allclose(got.density, 2.5, rtol=0, atol=1e-15)

    def test_coincident_atoms_merge(self):
        q1 = Potential.from_atoms([(0.5, 2.0)])
        q2 = Potential.from_atoms([(0.5, 4.0)])
        mid = convex_combination(q1, q2, 0.5)
        assert len(mid.atoms) == 1
        assert mid.atoms[0][1] == pytest.approx(3.0, rel=1e-15)

    def test_grid_unification(self):
        q1 = Potential.constant(1.0, 16)
        q2 = Potential.constant(3.0, 32)
        mid = convex_combination(q1, q2, 0.5)
        assert mid.grid_n == 32
        assert np.allclose(mid.density, 2.0)

    def test_parameter_validation(self):
        q = Potential.zero()
        with pytest.raises(ParameterError):
            convex_combination(q, q, 1.5)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(min_value=0.0, max_value=1.0))
    def test_density_interpolates(self, t):
        q1 = Potential.constant(1.0, 8)
        q2 = Potential.constant(5.0, 8)
        got = convex_combination(q1, q2, t)
        assert np.allclose(got.density, 1.0 + 4.0 * t, rtol=1e-15, atol=1e-12)


class TestPotential:
    def test_validation(self):
        with pytest.raises(InvalidPotentialError):
            Potential(4, np.array([1.0, -0.5, 0.0, 0.0]))
        with pytest.raises(InvalidPotentialError):
            Potential(4, np.zeros(4), ((1.5, 1.0),))
        with pytest.raises(InvalidPotentialError):
            Potential(4, np.zeros(4), ((0.5, -1.0),))

    def test_atoms_sorted_and_merged(self):
        q = Potential(4, np.zeros(4), ((0.7, 1.0), (0.3, 2.0), (0.3 + 1e-14, 3.0)))
        assert [p for p, _ in q.atoms] == pytest.approx([0.3, 0.7])
        assert q.atoms[0][1] == pytest.approx(5.0)

    def test_density_immutable(self):
        q = Potential.constant(1.0, 8)
        with pytest.raises(ValueError):
            q.density[0] = 2.0

    @pytest.mark.parametrize("n", [49, 100, 3000])
    def test_density_at_right_open_cells(self, n):
        q = Potential(n, np.arange(n, dtype=float))
        assert q.density_at(0.0) == 0.0
        assert q.density_at(1.0) == n - 1
        for j in range(1, n):
            assert q.density_at(j / n) == j
            assert q.density_at(np.nextafter(j / n, 0.0)) == j - 1

    def test_json_round_trip(self, rng):
        q = random_potential(rng, grid_n=24, max_atoms=2)
        q2 = potential_from_dict(potential_to_dict(q))
        assert q2.grid_n == q.grid_n
        assert np.array_equal(q2.density, q.density)
        assert q2.atoms == q.atoms
