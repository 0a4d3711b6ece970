"""The gamma = 1 atom-solve path against the forms it replaced, bit for
bit: phase's inlined scalar loop on every branch, propagate's loop on the
fused mesh's tuples and on arrays, the one-run fused mesh
as tuples (and the arrays of a one-run mesh long enough for the scan),
the warm atom solve's mesh built from its atoms with no potential, the
zoom supremum, and the k-atom solves and the single-atom scan built
from all of them."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import slmajorant.extremal as ex
from slmajorant import (
    ConstantWeight,
    InvalidPotentialError,
    Potential,
    PowerWeight,
    SolverConfig,
    atom_grid_search,
    solve_extremal_gamma_eq1,
)
from slmajorant import _propagate as prop
from slmajorant.eigensolver import ShootingSolution, eigenvalue
from slmajorant.measures import COINCIDENT_TOL

import reference
from conftest import assert_fused_form
from reference import (
    atom_ground_ref,
    atom_potential_ref,
    fused_mesh_ref,
    phase_loop_ref,
    propagate_loop_ref,
    sup_y2_over_r_zoom_ref,
)

TC = prop.TAYLOR_CUT


def _mesh(rng, branch, nseg):
    """(lens, qs, masses, lam) of nseg segments that all take one branch of
    the loop; about half of the segments end in an atom."""
    lam = float(rng.uniform(5.0, 60.0))
    lens = rng.uniform(0.01, 1.0, nseg)
    if branch == "taylor":      # |(q - lam) t^2| < TAYLOR_CUT
        qs = lam + rng.uniform(-0.5, 0.5, nseg) * TC
    elif branch == "oscillatory":
        qs = lam - rng.uniform(1.0, lam, nseg)
    elif branch == "hyperbolic":   # kappa t <= BIG_ARG
        qs = lam + rng.uniform(1.0, 400.0, nseg)
    elif branch == "big_arg":      # kappa t > BIG_ARG
        lens = rng.uniform(0.5, 1.0, nseg)
        qs = lam + 10.0 ** rng.uniform(4.0, 8.0, nseg)
    else:                          # every branch, and empty segments
        qs = lam + rng.choice([-30.0, 0.0, 200.0, 1e6], nseg) * rng.uniform(0.5, 1.0, nseg)
        lens = np.where(rng.random(nseg) < 0.15, 0.0, lens)
    masses = np.where(rng.random(nseg) < 0.5, rng.uniform(0.1, 50.0, nseg), 0.0)
    return lens, qs, masses, lam


BRANCHES = ("taylor", "oscillatory", "hyperbolic", "big_arg", "mixed")


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("seed", range(4))
def test_phase_loop_equals_the_reference_on_every_branch(branch, seed):
    rng = np.random.default_rng([seed, BRANCHES.index(branch)])
    for nseg in (1, 2, 3, 5, 17, 100):
        lens, qs, masses, lam = _mesh(rng, branch, nseg)
        want = phase_loop_ref(lens.tolist(), qs.tolist(), masses.tolist(), lam)
        assert math.isfinite(want)
        assert prop.phase(*(tuple(v.tolist()) for v in (lens, qs, masses)), lam) == want
        assert prop.phase(lens.tolist(), qs.tolist(), masses.tolist(), lam) == want
        assert prop.phase(lens, qs, masses, lam) == want


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("seed", range(2))
def test_propagate_loop_equals_the_reference_on_every_branch(branch, seed):
    """propagate on tuples, lists and arrays of 1 to SCAN_MIN_SEGMENTS - 1
    segments, with and without atoms, gives the reference loop's arrays:
    the inlined oscillatory and cosh/sinh steps, every other cs_scalar
    branch, densities up to 1e8 past BIG_ARG, and (in the mixed meshes)
    segments of length 0."""
    rng = np.random.default_rng([seed, BRANCHES.index(branch), 1])
    for nseg in (1, 2, 3, 17, 100, prop.SCAN_MIN_SEGMENTS - 1):
        lens, qs, masses, lam = _mesh(rng, branch, nseg)
        for ms in (masses, np.zeros(nseg)):
            want = propagate_loop_ref(lens, qs, ms, lam)
            assert all(np.all(np.isfinite(w)) for w in want)
            arrays = (lens, qs, ms)
            for mesh in (tuple(tuple(v.tolist()) for v in arrays),
                         [v.tolist() for v in arrays], arrays):
                got = prop.propagate(*mesh, lam)
                assert all(g.dtype == w.dtype and np.array_equal(g, w)
                           for g, w in zip(got, want))


def _fused_mesh_arrays(q):
    """q's fused mesh as writable arrays, whatever its length."""
    return tuple(np.array(v) for v in prop.build_segments(q.grid_n, q.density, q.atoms))


def test_propagate_and_shooting_take_the_fused_mesh_as_it_is(monkeypatch):
    """propagate on q.fused_mesh (tuples on an atom potential and a
    256-cell grid, read-only arrays on a 600-cell grid) gives the array
    call's arrays, the reference loop's below SCAN_MIN_SEGMENTS segments,
    and ShootingSolution the values it gave from arrays.  The atoms sit on
    nodes (0.5) and inside cells."""
    rng = np.random.default_rng(17)
    cases = [Potential.from_atoms(((0.2, 3.0), (0.55, 1.5), (0.8, 4.0))),
             Potential(256, rng.uniform(0.0, 1e3, 256)),
             Potential(256, rng.uniform(0.0, 1e3, 256), ((0.3, 2.0), (0.5, 1.0))),
             Potential(600, rng.uniform(0.0, 1e3, 600))]
    points = rng.uniform(0.0, 1.0, 50)
    lams = [eigenvalue(q, 1) for q in cases]
    sols = []
    for q, lam in zip(cases, lams):
        mesh, arrays = q.fused_mesh[1:], _fused_mesh_arrays(q)[1:]
        for x in (5.0, lam, 4000.0):
            want = prop.propagate(*arrays, x)
            assert all(np.array_equal(g, w)
                       for g, w in zip(prop.propagate(*mesh, x), want))
            if len(mesh[0]) < prop.SCAN_MIN_SEGMENTS:
                assert all(np.array_equal(g, w)
                           for g, w in zip(propagate_loop_ref(*arrays, x), want))
        sol = ShootingSolution(q, lam)
        sols.append((sol.values(points), sol.cell_square_masses(q.edges())))
    monkeypatch.setattr(Potential, "fused_mesh", property(_fused_mesh_arrays))
    for q, lam, (values, masses) in zip(cases, lams, sols):
        sol = ShootingSolution(q, lam)
        assert np.array_equal(sol.values(points), values)
        assert np.array_equal(sol.cell_square_masses(q.edges()), masses)


def test_cos_sin_basis_under_the_non_oscillatory_rule():
    # q - lam = -TAYLOR_CUT on a unit segment: not oscillatory by the
    # loop's rule, and just outside the series, so cs_scalar's cos/sin
    for q, lam in ((0.0, TC), (TC, 2.0 * TC)):
        args = ([1.0], [q], [0.0], lam)
        assert q - lam == -TC
        assert prop.phase(*args) == phase_loop_ref(*args)


def _scalar_branch(d: float, t: float) -> str:
    """The branch of phase's loop that a segment takes: oscillatory and
    cosh/sinh inline, the other three through cs_scalar."""
    x = d * t * t
    if d < -TC and x <= -TC:
        return "oscillatory"
    if abs(x) < TC:
        return "series"
    if d < 0.0:
        return "cos/sin"
    return "cosh/sinh" if math.sqrt(d) * t <= prop.BIG_ARG else "exp-scaled"


def _branch_draw(rng, branch, nseg):
    """(lens, qs, lam) of nseg segments that all take one non-oscillatory
    branch; the cos/sin pair has one segment, of length 1, where q - lam
    is -TAYLOR_CUT exactly."""
    lam = float(rng.uniform(5.0, 60.0))
    lens = rng.uniform(0.01, 1.0, nseg)
    if branch == "cos/sin":
        lam = TC * (1 + nseg % 2)
        return np.ones(1), np.full(1, lam - TC), lam
    if branch == "series, d > 0":
        d = rng.uniform(0.0, 0.99, nseg) * TC / lens**2
    elif branch == "series, d < 0":
        d = -rng.uniform(0.0, 0.99, nseg) * TC / lens**2
    elif branch == "exp-scaled":
        d = (rng.uniform(1.01, 50.0, nseg) * prop.BIG_ARG / lens) ** 2
    else:
        d = rng.uniform(TC, 1.0, nseg) * (prop.BIG_ARG / lens) ** 2
    return lens, lam + d, lam


@pytest.mark.parametrize("branch", ["series, d > 0", "series, d < 0", "cos/sin",
                                    "exp-scaled", "cosh/sinh"])
@pytest.mark.parametrize("atoms", [False, True])
def test_non_oscillatory_branches_equal_the_reference(branch, atoms):
    """Every segment of each draw takes the named branch (the series, the
    non-oscillatory cos/sin pair and the exp-scaled pair through
    cs_scalar, cosh/sinh inline), and phase and propagate give the
    reference loops' theta and boundary arrays bit for bit, with atoms
    after the segments or without."""
    rng = np.random.default_rng([len(branch), atoms])
    for nseg in (1, 2, 3, 17, 100):
        lens, qs, lam = _branch_draw(rng, branch, nseg)
        taken = {_scalar_branch(q - lam, t) for q, t in zip(qs.tolist(), lens.tolist())}
        assert taken == {branch.split(",")[0]}
        masses = rng.uniform(0.1, 50.0, len(lens)) if atoms else np.zeros(len(lens))
        want = phase_loop_ref(lens, qs, masses, lam)
        assert math.isfinite(want)
        assert prop.phase(*(tuple(v.tolist()) for v in (lens, qs, masses)), lam) == want
        assert prop.phase(lens, qs, masses, lam) == want
        states = propagate_loop_ref(lens, qs, masses, lam)
        for mesh in (tuple(tuple(v.tolist()) for v in (lens, qs, masses)),
                     (lens, qs, masses)):
            assert all(np.array_equal(g, w)
                       for g, w in zip(prop.propagate(*mesh, lam), states))


def test_zero_exactly_at_a_boundary():
    # a linear segment (q = lam), an atom of mass -4 that turns y' to -1,
    # then a second linear segment that lands on y = 0 exactly
    lens, qs, masses, lam = [0.5, 0.5, 0.3], [5.0, 5.0, 5.0], [-4.0, 3.0, 0.0], 5.0
    r = math.hypot(0.5, -1.0)
    assert 0.5 / r + 0.5 * (-1.0 / r) == 0.0
    want = phase_loop_ref(lens, qs, masses, lam)
    assert prop.phase(lens, qs, masses, lam) == want
    assert prop.phase(*map(np.asarray, (lens, qs, masses)), lam) == want
    # and the same zero followed by oscillatory and hyperbolic segments
    for tail_q in (-40.0, 400.0):
        args = (lens + [0.2], qs + [tail_q], masses[:2] + [2.0, 0.0], lam)
        assert prop.phase(*args) == phase_loop_ref(*args)


@pytest.mark.parametrize("seed", range(3))
def test_atom_potential_sweeps_equal_the_reference(seed):
    rng = np.random.default_rng(seed)
    for w in (ConstantWeight(1.3), PowerWeight(1.5, 1.25)):
        for k in (1, 2, 3):
            zs = np.sort(rng.uniform(0.02, 0.98, k))
            shares = rng.dirichlet(np.ones(k))
            q = ex._atom_potential(w, zs.tolist(), shares.tolist())
            ref = atom_potential_ref(w, zs, shares)
            assert q.atoms == ref.atoms
            assert all(type(v) is float for atom in q.atoms for v in atom)
            mesh, want = q.fused_mesh, fused_mesh_ref(ref)
            assert mesh == want
            assert_fused_form(mesh)
            for lam in (5.0, 20.0, 80.0, 1e4):
                assert prop.phase(*mesh[1:], lam) == phase_loop_ref(*want[1:], lam)


def test_sweep_lists_of_other_grids_come_from_the_fused_mesh():
    rng = np.random.default_rng(5)
    for q in (Potential(16, rng.uniform(0.0, 5.0, 16), ((0.5, 1.0),)),
              Potential.constant(2.0, 64), Potential.constant(2.0, 63),
              Potential(600, rng.uniform(0.0, 5.0, 600))):
        got, want = q.fused_mesh, fused_mesh_ref(q)
        assert all(np.array_equal(np.asarray(g), np.asarray(w))
                   for g, w in zip(got, want))
        assert_fused_form(got)
        assert type(got[0]) is type(want[0])


def _many_atoms(count, seed=11):
    rng = np.random.default_rng(seed)
    pos = np.linspace(0.01, 0.99, count) + rng.uniform(-1e-4, 1e-4, count)
    return tuple(zip(pos.tolist(), rng.uniform(0.01, 0.1, count).tolist()))


def test_one_run_lists_stop_where_the_scan_starts():
    # a one-run grid with SCAN_MIN_SEGMENTS - 1 segments is swept from
    # tuples; one more atom makes a mesh that the scan sweeps as arrays
    zero = np.zeros(16)
    n = prop.SCAN_MIN_SEGMENTS - 1
    for count, nseg in ((n - 1, n), (n, n + 1)):
        atoms = _many_atoms(count)
        mesh = prop.build_segments(16, zero, atoms)
        assert len(mesh[1]) == nseg
        assert_fused_form(mesh)
        want = fused_mesh_ref(Potential.from_atoms(atoms))
        assert all(np.array_equal(np.asarray(g), np.asarray(w))
                   for g, w in zip(mesh, want))


def test_a_one_run_grid_of_scan_length_solves_as_the_fused_mesh(monkeypatch):
    # 600 atoms on a 16-cell grid of density 0: one run of 601 segments
    q = Potential.from_atoms(_many_atoms(600))
    assert len(q.atoms) == 600
    got, want = q.fused_mesh, fused_mesh_ref(q)
    assert_fused_form(got)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    lams = [eigenvalue(q, n) for n in (0, 2)]
    monkeypatch.setattr(Potential, "fused_mesh", property(fused_mesh_ref))
    q = Potential.from_atoms(q.atoms)   # q keeps the phases its solves swept
    assert lams == [eigenvalue(q, n) for n in (0, 2)]


def test_zoom_supremum_equals_the_reference():
    rng = np.random.default_rng(9)
    cases = [(ConstantWeight(1.0), Potential.from_atoms(((0.5, 1.0),))),
             (PowerWeight(1.5, 1.25), Potential.from_atoms(((0.3, 2.0), (0.6, 1.5)))),
             (PowerWeight(1.0, 1.0), Potential(64, rng.uniform(0.0, 30.0, 64)))]
    for w, q in cases:
        sol = ShootingSolution(q, eigenvalue(q, 0))
        assert ex._sup_y2_over_r(w, sol) == sup_y2_over_r_zoom_ref(w, sol)


@pytest.mark.parametrize("grid_n", [4, 16, 63, 64, 100])
def test_density_check_on_short_and_long_grids(grid_n):
    cases = [({1: math.nan}, "finite"), ({0: math.nan, 1: -1.0}, "finite"),
             ({0: -1.0, 1: math.nan}, "finite"), ({2: math.inf}, "finite"),
             ({0: -math.inf}, "finite"), ({3: -0.5}, "nonnegative")]
    for bad, word in cases:
        d = np.ones(grid_n)
        for i, v in bad.items():
            d[i] = v
        with pytest.raises(InvalidPotentialError, match=f"must be {word}"):
            Potential(grid_n, d)
    # a sum that overflows is still a finite density
    assert Potential(grid_n, np.full(grid_n, 1e308)).density[0] == 1e308
    assert Potential(grid_n, -np.zeros(grid_n)).density.tolist() == [0.0] * grid_n


def _ref_atoms(w, zs, shares):
    return atom_potential_ref(w, zs, shares).atoms


def _oracle_path(monkeypatch):
    """Route the atom solves through the forms they replaced: each solve
    builds the potential of atom_potential_ref's atoms and solves it by
    the reference solves, which sweep fused_mesh_ref of it with the
    reference loop, so no solve reaches run_mesh or _eigenvalue_warm."""
    monkeypatch.setattr(prop, "phase", phase_loop_ref)
    monkeypatch.setattr(Potential, "fused_mesh", property(fused_mesh_ref))
    monkeypatch.setattr(ex, "_atom_potential", atom_potential_ref)
    monkeypatch.setattr(ex, "_saturating_atoms", _ref_atoms)
    monkeypatch.setattr(ex, "_atom_ground", atom_ground_ref)
    monkeypatch.setattr(ex, "_sup_y2_over_r", sup_y2_over_r_zoom_ref)


WEIGHTS = {"const": ConstantWeight(1.3), "power": PowerWeight(1.5, 1.25)}


def _counted(monkeypatch, owner, name, calls):
    """Rebind owner.name to a wrapper that appends its arguments to calls."""
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("weight", WEIGHTS)
def test_k_atom_solve_equals_the_oracle_path(monkeypatch, weight, k):
    w, cfg = WEIGHTS[weight], SolverConfig(k_atoms=k)
    meshes, colds = [], []
    _counted(monkeypatch, ex, "run_mesh", meshes)
    _counted(monkeypatch, ex, "eigenvalue", colds)
    new = solve_extremal_gamma_eq1(w, k, cfg)
    monkeypatch.undo()
    # every solve of the oracle path, warm or cold, sweeps the cell loop's
    # mesh of an atom_potential_ref potential
    _oracle_path(monkeypatch)
    ref_meshes = []
    _counted(monkeypatch, reference, "fused_mesh_ref", ref_meshes)
    ref = solve_extremal_gamma_eq1(w, k, cfg)
    assert meshes and len(ref_meshes) == len(meshes) + len(colds)
    assert (new.M, new.residual, new.trace, new.converged) == (
        ref.M, ref.residual, ref.trace, ref.converged)
    assert new.q_hat.atoms == ref.q_hat.atoms


@pytest.mark.parametrize("weight", WEIGHTS)
def test_atom_scan_equals_the_oracle_path(monkeypatch, weight):
    w = WEIGHTS[weight]
    # the search builds one mesh from the atoms per warm solve, and a
    # potential only for its first, cold solve and for q_hat
    meshes, built = [], []
    _counted(monkeypatch, ex, "run_mesh", meshes)
    _counted(monkeypatch, Potential, "__post_init__", built)
    new = atom_grid_search(w, 201)
    assert len(meshes) == new.iterations - 1 and len(built) == 2
    monkeypatch.undo()
    # the oracle path sweeps one cell-loop mesh per eigen-solve, each of
    # an atom_potential_ref potential, and builds no mesh from atoms
    _oracle_path(monkeypatch)
    ref_meshes, refs = [], []
    _counted(monkeypatch, reference, "fused_mesh_ref", ref_meshes)
    _counted(monkeypatch, ex, "_saturating_atoms", refs)
    _counted(monkeypatch, ex, "run_mesh", meshes)
    ref = atom_grid_search(w, 201)
    assert len(ref_meshes) == len(refs) == ref.iterations
    assert len(meshes) == new.iterations - 1
    assert (new.M_hat, new.iterations, new.kkt_residual, new.scan) == (
        ref.M_hat, ref.iterations, ref.kkt_residual, ref.scan)
    assert new.q_hat.atoms == ref.q_hat.atoms


@st.composite
def atom_draws(draw):
    """(zs, shares) of 1 to 3 atoms: positions on a node j / 16, inside
    the interval, or closer than COINCIDENT_TOL to the atom before (the
    two merge); a share of 0 drops its atom."""
    zs: list[float] = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["node", "inside", "coincident"][:2 + bool(zs)]))
        if kind == "node":
            zs.append(draw(st.integers(1, 15)) / 16)
        elif kind == "inside":
            zs.append(draw(st.floats(0.01, 0.99)))
        else:
            zs.append(zs[-1] + draw(st.floats(-0.9, 0.9)) * COINCIDENT_TOL)
    shares = draw(st.lists(st.just(0.0) | st.floats(1e-3, 1.0),
                           min_size=len(zs), max_size=len(zs)))
    return zs, shares


@given(draw=atom_draws(), weight=st.sampled_from(sorted(WEIGHTS)),
       offset=st.sampled_from([-1e-3, 1e-6, 0.3]))
def test_atom_path_mesh_and_lambda_are_the_potential_s(draw, weight, offset):
    """The warm atom solve sweeps the fused mesh of the potential its
    atoms make, tuples as tuples, and returns the potential's lambda."""
    zs, shares = draw
    atoms = ex._saturating_atoms(WEIGHTS[weight], zs, shares)
    q = Potential.from_atoms(atoms)
    lam = eigenvalue(q, 0)
    passed = []
    warm = ex._eigenvalue_warm

    def recorded(mesh, memo, *args):
        passed.append(mesh)
        return warm(mesh, memo, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "_eigenvalue_warm", recorded)
        got = ex._atom_ground(atoms, 1e-10, lam * (1.0 + offset))
    (mesh,) = passed
    want = Potential.from_atoms(atoms).fused_mesh
    assert mesh == want == fused_mesh_ref(q)
    assert_fused_form(mesh)
    assert got == ex._ground(Potential.from_atoms(atoms), 1e-10, lam * (1.0 + offset))


@pytest.mark.parametrize("atom", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.0),
                                  (0.5, math.inf), (0.5, math.nan)])
@pytest.mark.parametrize("guess", [None, 20.0])
def test_a_bad_atom_is_refused_as_the_potential_refuses_it(atom, guess):
    atoms = [(0.25, 1.0), atom]
    with pytest.raises(InvalidPotentialError) as by_potential:
        Potential.from_atoms(atoms)
    with pytest.raises(InvalidPotentialError) as by_solve:
        ex._atom_ground(atoms, 1e-10, guess)
    assert str(by_solve.value) == str(by_potential.value)
    assert "atom" in str(by_potential.value)


@pytest.mark.parametrize("weight", WEIGHTS)
def test_atom_scan_sweeps_python_floats(sweep_counter, weight):
    # the scan's warm guesses are numpy scalars; the solves take them as
    # floats, so every sweep runs in Python float arithmetic
    atom_grid_search(WEIGHTS[weight], 41)
    assert sweep_counter
    assert all(type(lam) is float for lam in sweep_counter)
