import math

import mpmath
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
)
from slmajorant.measures import _cell_index
from conftest import (
    dual_seminorm_oracle,
    non_dyadic_potential,
    random_potential,
)
from reference import (cell_index_clip_ref, cell_index_ref, integrals_loop,
                       primitive_ref)


class TestWeightEval:
    def test_constant(self):
        assert ConstantWeight(1.0)(0.3) == 1.0

    def test_power(self):
        assert PowerWeight(1, 1)(0.5) == 0.25

    def test_table_interpolation(self):
        w = TableWeight((0.25, 0.75), (2.0, 4.0))
        assert w(0.5) == pytest.approx(3.0, abs=1e-15)

    def test_table_flat_extension(self):
        w = TableWeight((0.25, 0.75), (2.0, 4.0))
        assert w(0.01) == 2.0
        assert w(0.99) == 4.0

    def test_invalid_weights(self):
        with pytest.raises(ParameterError):
            ConstantWeight(-1.0)
        with pytest.raises(ParameterError):
            PowerWeight(-0.5, 0.0)
        with pytest.raises(ParameterError):
            TableWeight((0.5, 0.25), (1.0, 1.0))
        with pytest.raises(ParameterError):
            TableWeight((0.25, 0.75), (1.0, -1.0))

    @pytest.mark.parametrize("make", [
        lambda: PowerWeight(math.nan, 1.0), lambda: PowerWeight(math.inf, 1.0),
        lambda: PowerWeight(1.0, math.nan), lambda: TableWeight((math.nan,), (1.0,)),
        lambda: TableWeight((0.5,), (math.inf,)), lambda: ConstantWeight(math.nan),
    ], ids=["power-nan", "power-inf", "power-beta-nan", "table-nan-node",
            "table-inf-value", "const-nan"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ParameterError):
            make()

    @pytest.mark.parametrize("text", [
        "power:x,1", "power:1", "power:1,2,3", "const:", "const:abc",
        "table-inline:a,b", "table-inline:0.5", "table-inline:0.5,1,2",
        "table-inline:", "spline:1",
    ])
    def test_malformed_literal_raises_parameter_error(self, text):
        with pytest.raises(ParameterError):
            parse_weight(text)

    def test_literal_round_trip(self):
        for w in (ConstantWeight(2.5), PowerWeight(1.0, 2.0),
                  TableWeight((0.25, 0.75), (2.0, 4.0))):
            w2 = parse_weight(w.literal())
            assert type(w2) is type(w)
            for x in (0.1, 0.5, 0.9):
                assert w2(x) == pytest.approx(w(x), rel=1e-15)


class TestPowIntegral:
    def test_divergent_power_weight_exponent_rejected(self):
        # alpha * p = -1: r**p = 1/x is not integrable at 0
        w = PowerWeight(2, 0)
        with pytest.raises(ParameterError):
            w.cell_pow_integrals(np.array([0.25, 0.75]), -0.5)
        with pytest.raises(ParameterError):
            w.cell_pow_integrals(np.array([0.25, 0.5, 0.75]), -0.5)

    def test_negative_power_weight_exponent_in_range(self):
        # integral of x**-0.5 over [1/4, 1] is 2 * (1 - 1/2)
        w = PowerWeight(1, 0)
        assert abs(w.cell_pow_integrals(np.array([0.25, 1.0]), -0.5)[0] - 1.0) <= 1e-15
        cells = w.cell_pow_integrals(np.array([0.25, 0.5, 1.0]), -0.5)
        assert np.allclose(cells, [2 * math.sqrt(0.5) - 1.0, 2 - 2 * math.sqrt(0.5)],
                           rtol=0.0, atol=1e-15)

    def test_table_weight_log_branch(self):
        # 1/r: flat 2 on [0, 1/4], linear 2 -> 4 on [1/4, 3/4], flat 4 after
        w = TableWeight((0.25, 0.75), (2.0, 4.0))
        exact = 0.25 / 2.0 + math.log(2.0) / 4.0 + 0.25 / 4.0
        assert abs(w.cell_pow_integrals(np.array([0.0, 1.0]), -1.0)[0] - exact) <= 1e-15
        # a sub-interval of the linear piece: ln(r(b) / r(a)) / slope
        part = w.cell_pow_integrals(np.array([0.375, 0.5]), -1.0)[0]
        assert abs(part - math.log(3.0 / 2.5) / 4.0) <= 1e-15


EXPONENTS = (0.0, 0.5, 1.0, 1.4644, 2.0, 3.7)


def _beta_cells_mp(s: float, t: float, edges: np.ndarray) -> np.ndarray:
    """Integral of u**(s-1) (1-u)**(t-1) over each interval, from mpmath's
    incomplete beta at 50 digits: each edge's value B_x(s, t) is taken
    from the nearer end of [0, 1], and the differences are formed at 50
    digits, which leaves more than 30 after any cancellation here."""
    with mpmath.workdps(50):
        full = mpmath.beta(s, t)
        vals = [
            mpmath.betainc(s, t, 0, x) if x <= 0.5
            else full - mpmath.betainc(t, s, 0, 1.0 - x)
            for x in edges.tolist()
        ]
        return np.array([float(b - a) for a, b in zip(vals[:-1], vals[1:])])


def _edge_sets():
    rng = np.random.default_rng(20140901)
    fine = np.arange(4097) / 4096
    # every end cell on both sides of the four-width switch, the cells at
    # 1/2 and a few interior ones; the integrals are taken over all 4097
    # edges, so each cell is routed as in a solve
    cells = np.r_[0:6, 2046:2050, 4090:4096, rng.integers(6, 4090, 4)]
    return [
        (np.arange(17) / 16, np.arange(16)),
        (np.arange(101) / 100, np.arange(100)),
        (fine, np.unique(cells)),
        (np.array([0.0, 0.25, 0.75, 1.0]), np.arange(3)),
        (np.r_[0.0, np.sort(rng.uniform(size=10)), 1.0], np.arange(11)),
        (np.sort(rng.uniform(size=8)), np.arange(7)),
    ]


class TestPowerWeightIntegrals:
    """Per-interval integrals of r**p for power weights against mpmath."""

    @pytest.mark.parametrize("p", [1.0, 0.5, 1.0 / 3.0, -0.5])
    def test_every_interval_to_1e13(self, p):
        edge_sets = _edge_sets()
        worst = 0.0
        for alpha in EXPONENTS:
            for beta in EXPONENTS:
                if alpha * p <= -1.0 or beta * p <= -1.0:
                    continue   # r**p not integrable on [0, 1]
                w = PowerWeight(alpha, beta)
                s, t = alpha * p + 1.0, beta * p + 1.0
                for edges, cells in edge_sets:
                    got = w.cell_pow_integrals(edges, p)[cells]
                    sub = np.unique(np.r_[cells, cells + 1])
                    ref = _beta_cells_mp(s, t, edges[sub])[np.searchsorted(sub, cells)]
                    worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
        assert worst <= 1e-13

    def test_last_cell_near_one(self):
        # x**2 (1-x)**2 on the last of 4096 cells: a difference of two
        # values close to B(3, 3) lost 6.4 digits here
        w = PowerWeight(2.0, 2.0)
        edges = np.arange(4097) / 4096
        ref = _beta_cells_mp(3.0, 3.0, edges[-2:])[0]
        assert abs(w.cell_pow_integrals(edges)[-1] - ref) <= 1e-15 * ref
        assert abs(w.cell_pow_integrals(np.array([edges[-2], 1.0]))[0] - ref) <= 1e-15 * ref


_NODES_100 = np.linspace(0.01, 0.99, 100)
TABLES = {
    "linear": TableWeight((0.25, 0.75), (2.0, 4.0)),
    "bimodal": TableWeight((0.2, 0.35, 0.5, 0.65, 0.8), (0.4, 1.2, 3.0, 1.2, 0.4)),
    "near-flat": TableWeight((0.3, 0.7), (1.0, 1.000001)),
    "100-node": TableWeight(tuple(_NODES_100),
                            tuple(1.0 + 0.9 * np.sin(37.0 * _NODES_100))),
}
# an antiderivative G of r**p in r, so that the integral of r**p over a
# linear piece of slope s is (G(r(b)) - G(r(a))) / s
_TABLE_ANTIDERIVATIVES = {
    1.0: lambda r: r * r / 2,
    0.5: lambda r: 2 * r * mpmath.sqrt(r) / 3,
    -0.5: lambda r: 2 * mpmath.sqrt(r),
    -1.0: mpmath.log,
    2.0: lambda r: r**3 / 3,
}


def _table_cells_mp(w: TableWeight, p: float, edges: np.ndarray) -> np.ndarray:
    """Integral of r**p over each interval of a table weight at 40 digits:
    the antiderivative from 0 at every edge, in closed form on the piece
    that holds it.  A near-flat piece loses about ten digits to the
    difference of G, and a cell about four to the difference of the
    antiderivative, which leaves more than 25."""
    G = _TABLE_ANTIDERIVATIVES[p]
    with mpmath.workdps(40):
        xs = [mpmath.mpf(x) for x in (0.0, *w.nodes, 1.0)]
        vs = [mpmath.mpf(v) for v in (w.values[0], *w.values, w.values[-1])]
        slopes = [(v1 - v0) / (x1 - x0)
                  for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:])]
        gs = [G(v) for v in vs]

        def piece(k, x):  # integral of r**p over [xs[k], x]
            s = slopes[k]
            if s == 0:
                return vs[k] ** p * (x - xs[k])
            return (G(vs[k] + s * (x - xs[k])) - gs[k]) / s

        starts = [mpmath.mpf(0)]
        for k in range(len(slopes)):
            starts.append(starts[-1] + piece(k, xs[k + 1]))
        ks = np.searchsorted(w.nodes, edges, side="right")
        prim = [starts[k] + piece(k, mpmath.mpf(x))
                for k, x in zip(ks.tolist(), edges.tolist())]
        return np.array([float(b - a) for a, b in zip(prim[:-1], prim[1:])])


class TestTableWeightIntegrals:
    """Per-cell integrals of r**p for table weights against mpmath: each
    is exact to rounding, near-flat pieces included."""

    @pytest.mark.parametrize("name", TABLES)
    def test_every_cell_to_1e14(self, name):
        w = TABLES[name]
        rng = np.random.default_rng(20140902)
        edge_sets = (np.arange(4097) / 4096,
                     np.r_[0.0, np.sort(rng.uniform(size=200)), 1.0])
        worst = 0.0
        for p in _TABLE_ANTIDERIVATIVES:
            for edges in edge_sets:
                got = w.cell_pow_integrals(edges, p)
                ref = _table_cells_mp(w, p, edges)
                worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
        assert worst <= 1e-14


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
        assert p.right[np.searchsorted(p.xs, 0.5)] == 2.0   # Q(0.5+)
        assert p(0.75) == 2.0
        assert p(1.0) == 2.0

    def test_nan_is_refused_on_both_sides(self):
        # __call__ once raised IndexError (searchsorted puts NaN past the
        # end)
        p = primitive(Potential(8, np.ones(8), ((0.5, 2.0),)))
        with pytest.raises(DomainError, match="is NaN"):
            p(math.nan)

    def test_nondecreasing(self, rng):
        q = random_potential(rng, grid_n=32, max_atoms=2)
        p = primitive(q)
        xs = np.linspace(0.001, 0.999, 500)
        vals = [p(x) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


    def test_integrals_match_the_piece_loop_bit_for_bit(self):
        # the same terms, added in the same order: == and not approx, since
        # seminorm sets every cold solve's bracket
        rng = np.random.default_rng(5)
        for trial in range(300):
            grid_n = int(rng.choice([1, 2, 16, 48, 100, 1024]))
            q = random_potential(rng, grid_n, float(rng.choice([1.0, 1e3])),
                                 max_atoms=3)
            p = primitive(q)
            ells = [2, 3, 7, 12]
            pairs = [(2.0 ** -ell, 1.0 - 2.0 ** -ell) for ell in ells]
            pairs += [tuple(np.sort(rng.uniform(0.0, 1.0, 2))), (0.0, 1.0)]
            pairs += [(p.xs[1], p.xs[-2])] if len(p.xs) > 3 else []
            for a, b in pairs:
                assert p.integrals(a, b) == integrals_loop(p, a, b), (trial, a, b)

    def test_left_values_match_the_piece_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for trial in range(400):
            grid_n = int(rng.choice([1, 2, 16, 48, 100, 1024, 4096]))
            q = random_potential(rng, grid_n, float(rng.choice([1.0, 1e3, 1e8])),
                                 max_atoms=3)
            assert np.array_equal(primitive(q).left, primitive_ref(q)), trial

    def test_integrals_of_one_piece_inside_a_cell(self):
        p = primitive(Potential.constant(2.0, 4))
        assert p.integrals(0.3, 0.4) == integrals_loop(p, 0.3, 0.4)
        assert p.integrals(0.3, 0.4)[0] == pytest.approx(2.0 * 0.035, rel=1e-14)


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
        mids = (np.arange(4096) + 0.5) / 4096
        q = Potential(4096, 2 * mids)
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

    def test_bins_copy_the_callers_array(self):
        bs = np.linspace(0.25, 0.75, 5)
        bins = Bins(bs)
        bs[0] = 0.0  # the caller's array stays writable ...
        assert bins.boundaries[0] == 0.25  # ... and is not the stored one
        with pytest.raises(ValueError):
            bins.boundaries[0] = 0.0


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

    def test_incommensurable_grids_raise(self):
        # lcm(4096, 4095) = 16,773,120 cells, past MAX_COMMON_CELLS
        with pytest.raises(InvalidPotentialError, match="incommensurable"):
            convex_combination(Potential.zero(4096), Potential.zero(4095), 0.5)

    def test_commensurable_grids_repeat_cells(self, rng):
        q1 = random_potential(rng, grid_n=48, max_atoms=1)
        q2 = random_potential(rng, grid_n=64, max_atoms=1)
        got = convex_combination(q1, q2, 0.3)
        want = 0.7 * np.repeat(q1.density, 4) + 0.3 * np.repeat(q2.density, 3)
        assert got.grid_n == 192
        assert np.array_equal(got.density, want)

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

    FINITE = "density values must be finite"
    NONNEG = "density values must be nonnegative"

    @pytest.mark.parametrize("bad, message", [
        ({1: math.nan}, FINITE),
        ({2: math.inf}, FINITE),
        ({0: -math.inf}, FINITE),
        ({3: -0.5}, NONNEG),
        ({0: -0.5, 3: math.nan}, FINITE),   # a non-finite value is reported first
        ({1: math.inf, 2: -2.0}, FINITE),
    ])
    def test_density_check_message(self, bad, message):
        d = np.ones(4)
        for i, v in bad.items():
            d[i] = v
        with pytest.raises(InvalidPotentialError) as exc:
            Potential(4, d)
        assert str(exc.value) == message

    def test_atoms_sorted_and_merged(self):
        q = Potential(4, np.zeros(4), ((0.7, 1.0), (0.3, 2.0), (0.3 + 1e-14, 3.0)))
        assert [p for p, _ in q.atoms] == pytest.approx([0.3, 0.7])
        assert q.atoms[0][1] == pytest.approx(5.0)

    def test_density_immutable(self):
        q = Potential.constant(1.0, 8)
        with pytest.raises(ValueError):
            q.density[0] = 2.0

    def test_density_copies_the_callers_array(self):
        a = np.zeros(4)
        q = Potential(4, a)
        a[0] = 1.0  # the caller's array stays writable ...
        assert q.density is not a
        assert q.density[0] == 0.0  # ... and the potential does not see it
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

    @staticmethod
    def _lookup_points(n: int, rng) -> list[float]:
        """Every node j / n, the float on each side of it, points inside
        the cells, and points below 0 and at or above 1."""
        nodes = np.arange(n + 1) / n
        return np.concatenate((
            nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
            rng.uniform(0.0, 1.0, 64), (nodes[:-1] + nodes[1:]) / 2.0,
            [-0.0, -5e-324, -0.5, -1e300, 1.0, 1.5, 1e300],
        )).tolist()

    def _assert_lookup_equals_the_flooring_rule(self, q: Potential, xs):
        want = [cell_index_ref(q.grid_n, x) for x in xs]
        assert _cell_index(q.edges(), np.asarray(xs)).tolist() == want
        assert [int(_cell_index(q.edges(), x)) for x in xs] == want
        assert [q.density_at(x) for x in xs] == [float(q.density[i]) for i in want]

    def test_cell_lookup_on_the_non_dyadic_grid(self):
        # the grid where flooring (j / n) * n lands one cell to the left
        q = non_dyadic_potential()
        xs = self._lookup_points(q.grid_n, np.random.default_rng(0))
        assert cell_index_ref(q.grid_n, 29 / 100) == 29
        self._assert_lookup_equals_the_flooring_rule(q, xs)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=3000), seed=st.integers(0, 2**32 - 1))
    def test_cell_lookup_on_random_grids(self, n, seed):
        rng = np.random.default_rng(seed)
        q = Potential(n, rng.uniform(0.0, 10.0, n))
        self._assert_lookup_equals_the_flooring_rule(q, self._lookup_points(n, rng))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5000),
           x=st.floats(min_value=-1e300, max_value=1e300))
    def test_cell_lookup_at_any_float(self, n, x):
        # bounded so that x * n stays finite for the flooring rule
        q = Potential(n, np.arange(n, dtype=float))
        self._assert_lookup_equals_the_flooring_rule(q, [x])

    @pytest.mark.parametrize("edges", [
        np.array([0.0, 1.0]),
        np.arange(8) / 7,
        non_dyadic_potential().edges(),
        Potential(64, np.zeros(64), ((0.3, 1.0), (0.71, 2.0))).fused_mesh[0],
        np.array([0.0, 0.3, 0.3005, 0.7, 1.0]),
    ], ids=["one cell", "7 cells", "100 cells", "one run, two atoms", "breakpoints"])
    def test_cell_lookup_is_the_clipped_search_over_every_edge(self, edges):
        # below, above, on and next to every edge, inside each cell, +-inf
        # and NaN, as an array and one float at a time
        edges = np.asarray(edges, dtype=float)
        xs = np.concatenate((
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            (edges[:-1] + edges[1:]) / 2.0,
            [-0.0, -5e-324, -1.0, -1.7e308, 1.5, 1.7e308, -np.inf, np.inf, np.nan],
        ))
        want = cell_index_clip_ref(edges, xs)
        got = _cell_index(edges, xs)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        for x in xs.tolist():
            got, want = _cell_index(edges, x), cell_index_clip_ref(edges, x)
            assert type(got) is type(want) and got == want

    def test_density_at_past_the_flooring_rules_range(self):
        # x * n overflows here, so the flooring rule cannot be the oracle
        q = Potential(3, np.array([1.0, 2.0, 3.0]))
        assert (q.density_at(-1.7e308), q.density_at(1.7e308)) == (1.0, 3.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_density_at_refuses_a_non_finite_point(self, x):
        with pytest.raises(DomainError, match="not finite"):
            Potential.constant(1.0, 8).density_at(x)

    def test_json_round_trip(self, rng):
        q = random_potential(rng, grid_n=24, max_atoms=2)
        q2 = potential_from_dict(potential_to_dict(q))
        assert q2.grid_n == q.grid_n
        assert np.array_equal(q2.density, q.density)
        assert q2.atoms == q.atoms


def _write_table(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    return f"table:{path}"


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp: Potential(0, np.zeros(0)), InvalidPotentialError, "grid_n"),
    (lambda tmp: Potential(4, np.zeros(5)), InvalidPotentialError, "shape"),
    (lambda tmp: Potential.constant(1.0, 4).scaled(-0.5), InvalidPotentialError,
     "scaling factor"),
    (lambda tmp: primitive(Potential.zero(4)).integrals(0.5, 0.5), DomainError,
     "integration interval"),
    (lambda tmp: Bins([0.2, 1.5]), ParameterError, "within"),
    (lambda tmp: Bins([-0.1, 0.5]), ParameterError, "within"),
    (lambda tmp: Bins.uniform(3, 0), ParameterError, "bin count"),
    (lambda tmp: bin_project(Potential.zero(16), ConstantWeight(1.0), 0.5,
                             Bins.uniform(2, 2)), ParameterError, "gamma"),
    (lambda tmp: parse_weight(_write_table(tmp, "x,w\n0.5,1\n")), ParameterError,
     "header 'x,r'"),
], ids=["grid_n-0", "density-shape", "scaled-negative", "integrals-empty",
        "bins-above-1", "bins-below-0", "uniform-count-0", "bin-project-gamma",
        "table-header"])
def test_public_calls_refuse_bad_input(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)
