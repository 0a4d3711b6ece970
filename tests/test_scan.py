"""Long meshes: the prefix-scan sweeps (_phase_scan, _propagate_scan)
against the one-segment-at-a-time loops (through their references, bit
for bit equal to phase's and propagate's own) and, bit for bit, against
the padded, masked kernels they replaced (with cs_arrays, sq_integrals
and ShootingSolution); the scans a read-only fused mesh keeps (keep_scans);
and the mesh builders (build_segments, node_mesh) against the reference
builders they replaced."""

import gc
import math
import tracemalloc
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from slmajorant import (Potential, PowerWeight, SolverConfig, eigenvalue,
                        solve_extremal_gamma_gt1)
from slmajorant import _propagate as prop
from slmajorant import extremal as ex
from slmajorant.measures import _merge_atoms
from slmajorant.eigensolver import ShootingSolution

from conftest import assert_fused_form
from reference import (
    _frac_angles_arrays_ref,
    cs_arrays_ref,
    fuse_loop_ref,
    fuse_runs_ref,
    node_mesh_ref,
    phase_loop_ref,
    phase_scan_ref,
    propagate_loop_ref,
    scan_ref,
    sq_integrals_ref,
)


def _long_potential(seed, grid_n, max_density, n_atoms, max_mass=2.0):
    """Density uniform in [0, max_density] (so every cell starts a run)
    plus n_atoms atoms inside (0.05, 0.95)."""
    rng = np.random.default_rng(seed)
    dens = rng.uniform(0.0, max_density, grid_n)
    pos = np.sort(rng.choice(np.arange(5, 96), n_atoms, replace=False)) / 100.0
    atoms = tuple((float(p), float(rng.uniform(0.1, max_mass))) for p in pos)
    return Potential(grid_n, dens, atoms)


def _barrier_potential(seed, grid_n):
    """Density uniform in [0, 50] with one block of cells at 1e6 to 1e8."""
    rng = np.random.default_rng(seed)
    dens = rng.uniform(0.0, 50.0, grid_n)
    a, b = sorted(rng.integers(grid_n // 8, grid_n - grid_n // 8, 2))
    dens[a:b] = 10.0 ** rng.uniform(6.0, 8.0, b - a)
    return Potential(grid_n, dens)


def _on_loops(monkeypatch):
    monkeypatch.setattr(prop, "SCAN_MIN_SEGMENTS", 10**9)


long_meshes = st.builds(
    _long_potential,
    seed=st.integers(0, 2**32 - 1),
    grid_n=st.integers(512, 4096),
    max_density=st.floats(1.0, 1e4),
    n_atoms=st.integers(0, 2),
)
LAM_FRACTIONS = (1e-3, 1e-2, 0.1, 0.3, 0.6, 1.0)


def _lams(q, frac):
    """Fixed fractions of lambda_32 and one drawn fraction."""
    lam_32 = eigenvalue(q, 32)
    return [lam_32 * f for f in LAM_FRACTIONS + (frac,)]


@given(q=long_meshes, frac=st.floats(1e-4, 1.0))
def test_scan_phase_agrees_with_the_loop(q, frac):
    _, lens, qs, masses = q.fused_mesh
    assert len(lens) >= prop.SCAN_MIN_SEGMENTS
    for lam in _lams(q, frac):
        loop = phase_loop_ref(lens, qs, masses, lam)
        assert prop._phase_scan(lens, qs, masses, lam) == pytest.approx(
            loop, rel=1e-12, abs=0.0)


@given(q=long_meshes, frac=st.floats(1e-4, 1.0))
def test_scan_states_agree_with_the_loop(q, frac):
    _, lens, qs, masses = q.fused_mesh
    for lam in _lams(q, frac):
        loop = propagate_loop_ref(lens, qs, masses, lam)
        scan = prop._propagate_scan(lens, qs, masses, lam)
        assert np.allclose(scan[0] ** 2 + scan[1] ** 2, 1.0, rtol=0.0, atol=1e-15)
        for got, want in zip(scan[:3], loop[:3]):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(np.abs(scan[3] - loop[3])
                      <= 1e-12 * np.maximum(1.0, np.abs(loop[3])))


@pytest.mark.parametrize("seed,grid_n,n_atoms", [(1, 4096, 0), (2, 3001, 2), (3, 777, 1)])
def test_eigenvalues_agree_with_the_loop(monkeypatch, seed, grid_n, n_atoms):
    q = _long_potential(seed, grid_n, 1e4, n_atoms)
    # a tight tolerance, so that the answers are set by the phase and not
    # by where the root finder stops
    scan = [eigenvalue(q, n, 1e-13) for n in (0, 5, 16, 32)]
    _on_loops(monkeypatch)
    # a new potential: q keeps the phases its solves swept
    q = Potential(q.grid_n, q.density, q.atoms)
    loop = [eigenvalue(q, n, 1e-13) for n in (0, 5, 16, 32)]
    assert scan == pytest.approx(loop, rel=1e-11, abs=0.0)


def _phase_mp(lens, qs, masses, lam):
    """The phase loop's recurrence in 30-digit arithmetic."""
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        y, dy, theta = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)

        def frac(y, dy):
            if y == 0:
                return mpmath.mpf(0)
            a = mpmath.atan2(y, dy)
            return a + mpmath.pi if a < 0 else a

        for t, qv, m in zip(lens.tolist(), qs.tolist(), masses.tolist()):
            t = mpmath.mpf(t)
            d = mpmath.mpf(qv) - lam
            if d < 0:
                om = mpmath.sqrt(-d)
                c, s = mpmath.cos(om * t), mpmath.sin(om * t) / om
            else:
                k = mpmath.sqrt(d)
                c, s = mpmath.cosh(k * t), mpmath.sinh(k * t) / k
            y1, dy1 = c * y + s * dy, d * s * y + c * dy
            if d < -prop.TAYLOR_CUT and abs(d) * t * t >= prop.TAYLOR_CUT:
                theta += (mpmath.atan2(om * y, dy) - mpmath.atan2(y, dy) + om * t
                          - mpmath.atan2(om * y1, dy1) + mpmath.atan2(y1, dy1))
            else:
                z = y != 0 and (y1 == 0 or (y > 0) != (y1 > 0))
                theta += z * mpmath.pi + frac(y1, dy1) - frac(y, dy)
            y, dy = y1, dy1
            if m != 0 and y != 0:
                theta += frac(y, dy + m * y) - frac(y, dy)
                dy += m * y
            r = mpmath.sqrt(y * y + dy * dy)
            y, dy = y / r, dy / r
        return float(theta)


def test_barrier_phase_is_no_further_from_30_digits_than_the_loop(monkeypatch):
    """On barriers of 1e6 to 1e8 the two paths' rounding differs most.  At
    lambda_0, lambda_16 and between them and the next eigenvalues, the
    scan's phase is, in total, no further from the 30-digit recurrence
    than the loop's, and each value stays within 1e-13 of it."""
    pts = []
    for seed, grid_n in ((1, 600), (2, 1024), (5, 513)):
        q = _barrier_potential(seed, grid_n)
        _, lens, qs, masses = q.fused_mesh
        assert len(lens) >= prop.SCAN_MIN_SEGMENTS
        lam = [eigenvalue(q, n, 1e-13) for n in (0, 1, 16, 17)]
        for x in (lam[0], 0.5 * (lam[0] + lam[1]), lam[2], 0.5 * (lam[2] + lam[3])):
            pts.append((lens, qs, masses, x))
        with monkeypatch.context() as m:
            _on_loops(m)
            q = Potential(q.grid_n, q.density, q.atoms)   # no phases kept
            assert eigenvalue(q, 16, 1e-13) == pytest.approx(lam[2], rel=1e-11)
    err_scan = err_loop = 0.0
    for lens, qs, masses, x in pts:
        exact = _phase_mp(lens, qs, masses, x)
        scan = prop._phase_scan(lens, qs, masses, x)
        assert scan == pytest.approx(exact, rel=1e-13, abs=0.0)
        err_scan += abs(scan - exact)
        err_loop += abs(phase_loop_ref(lens, qs, masses, x) - exact)
    assert err_scan <= err_loop


def test_dispatch_at_scan_min_segments():
    # one segment short of the scan, the fused mesh is tuples, which phase
    # and propagate sweep in their loops; at SCAN_MIN_SEGMENTS it is
    # arrays for the scan
    rng = np.random.default_rng(11)
    for nseg, kernel, sweep, form in ((prop.SCAN_MIN_SEGMENTS - 1, phase_loop_ref,
                                       propagate_loop_ref, tuple),
                                      (prop.SCAN_MIN_SEGMENTS, prop._phase_scan,
                                       prop._propagate_scan, np.ndarray)):
        q = Potential(nseg, rng.uniform(0.0, 100.0, nseg))
        _, lens, qs, masses = q.fused_mesh
        assert len(lens) == nseg and type(lens) is form
        arrays = tuple(map(np.asarray, (lens, qs, masses)))
        for lam in (5.0, 300.0, 4000.0):
            assert prop.phase(lens, qs, masses, lam) == kernel(lens, qs, masses, lam)
            want = sweep(*arrays, lam)
            for mesh in ((lens, qs, masses), arrays):
                got = prop.propagate(*mesh, lam)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_short_meshes_stay_on_the_loop():
    # the 256-cell ball grids and the atom meshes keep their answers bit
    # for bit
    for q in (_long_potential(13, 256, 1e3, 2),
              Potential.from_atoms(((0.3, 1.0), (0.6, 2.0)))):
        _, lens, qs, masses = q.fused_mesh
        for lam in (5.0, 300.0, 4000.0):
            assert prop.phase(lens, qs, masses, lam) == phase_loop_ref(
                lens, qs, masses, lam)


def test_scan_raises_no_warning_up_to_1e8():
    rng = np.random.default_rng(12)
    cases = [_barrier_potential(7, 2048), _long_potential(8, 1500, 1e8, 2, 1e3)]
    dens = np.zeros(600)
    dens[100:500] = 1e8
    cases.append(Potential(600, dens + rng.uniform(0.0, 1.0, 600), ((0.9, 5.0),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in cases:
            _, lens, qs, masses = q.fused_mesh
            for lam in (1.0, 50.0, 1e4, 2e6, 5e8):
                assert math.isfinite(prop._phase_scan(lens, qs, masses, lam))
                for arr in prop._propagate_scan(lens, qs, masses, lam):
                    assert np.all(np.isfinite(arr))


# ---------------------------------------------------------------------------
# the unpadded, one-path kernels against the padded, masked kernels they
# replaced, bit for bit


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _exact_mesh(nseg):
    """The fused mesh (lens, qs, masses) of a potential with exactly nseg
    segments, and the potential's cell densities.

    Cell densities are uniform up to 10**(nseg % 9), every seventh cell is
    0, and one run of grid_n // 32 cells sits at the top density: from
    1e7 on it is past BIG_ARG.  nseg % 4 atoms alternate between nodes
    outside the run and the middle half of a cell."""
    rng = np.random.default_rng(nseg)
    top = 10.0 ** (nseg % 9)
    n_atoms = nseg % 4
    inside = n_atoms // 2
    grid_n = nseg - inside
    run = grid_n // 32
    grid_n += run - 1
    dens = rng.uniform(0.0, top, grid_n)
    dens[::7] = 0.0
    a = grid_n // 2
    dens[a:a + run] = top
    cells = rng.choice(np.r_[8:a - 2, a + run + 2:grid_n - 8], n_atoms, replace=False)
    pos = [(c + (rng.uniform(0.25, 0.75) if i % 2 else 0.0)) / grid_n
           for i, c in enumerate(cells)]
    atoms = tuple((p, float(rng.uniform(0.1, 50.0))) for p in sorted(pos))
    _, lens, qs, masses = Potential(grid_n, dens, atoms).fused_mesh
    assert len(lens) == nseg
    return lens, qs, masses, dens


SCAN_COUNTS = [*range(512, 1101), *(2**k + i for k in range(10, 14) for i in (-1, 0, 1, 2))]


@pytest.mark.parametrize("nseg", SCAN_COUNTS)
def test_unpadded_scan_is_the_padded_scan(monkeypatch, nseg):
    """_scan's four arrays, theta, cs_arrays' three, sq_integrals' four and
    propagate's four arrays are the padded, masked kernel's, with warnings
    as errors, at lambda below, inside and above the densities: all
    oscillatory above, mixed inside, with Taylor cells at lambda = 1e-3
    and hyperbolic ones below."""
    lens, qs, masses, dens = _exact_mesh(nseg)
    lams = (-1.0, 1e-3, float(np.median(dens)), 2.0 * dens.max() + 100.0)
    assert np.all((qs - lams[-1]) * lens * lens <= -prop.TAYLOR_CUT)
    got = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in lams:
            _assert_same_arrays(prop._scan(lens, qs, masses, lam),
                                scan_ref(lens, qs, masses, lam))
            assert prop.phase(lens, qs, masses, lam) == phase_scan_ref(lens, qs, masses, lam)
            _assert_same_arrays(prop.cs_arrays(qs - lam, lens), cs_arrays_ref(qs - lam, lens))
            _assert_same_arrays(prop.sq_integrals(qs - lam, lens),
                                sq_integrals_ref(qs - lam, lens))
            got[lam] = prop.propagate(lens, qs, masses, lam)
    monkeypatch.setattr(prop, "_scan", scan_ref)
    for lam in lams:
        want = prop.propagate(lens, qs, masses, lam)
        assert all(np.array_equal(g, w) for g, w in zip(got[lam], want))


def _cs_cases():
    rng = np.random.default_rng(14)
    t = rng.uniform(1e-4, 0.05, 3000)
    osc = -rng.uniform(1.0, 1e6, 3000)
    yield "oscillatory", osc, t
    for name, value in (("hyperbolic", 5.0), ("taylor", -0.9 * prop.TAYLOR_CUT)):
        one_off = osc.copy()
        one_off[1234] = value
        yield f"all oscillatory but one {name}", one_off, t
    yield "taylor", rng.uniform(-0.5, 0.5, 3000) * prop.TAYLOR_CUT, t
    yield "hyperbolic", rng.uniform(1.0, 1e5, 3000), t
    yield "past BIG_ARG", 10.0 ** rng.uniform(7.0, 8.0, 3000), t + 0.05
    yield "mixed", rng.choice([-30.0, 0.0, 200.0, 1e8], 3000), t
    mixed = rng.choice([-1e4, -30.0, 200.0, 1e8], 3000)
    at_node = t.copy()
    at_node[::3] = 0.0
    yield "t = 0 on a breakpoint", mixed, at_node
    zero = mixed.copy()
    zero[::4] = 0.0
    zero[1::8] = -0.0
    yield "d = 0", zero, t
    # |d t^2| a few ulps either side of each cut: the Iss series at 1e-3,
    # the cs series at TAYLOR_CUT, and kappa t at BIG_ARG
    ulps = np.resize(np.arange(-6, 7), 3000)
    sign = np.resize([1.0, -1.0], 3000)
    for name, cut in (("the series cut 1e-3", 1e-3), ("TAYLOR_CUT", prop.TAYLOR_CUT)):
        d = sign * cut / (t * t)
        yield f"either side of {name}", d + ulps * np.spacing(d), t
    d = (prop.BIG_ARG / t) ** 2
    yield "either side of BIG_ARG", d + 4 * ulps * np.spacing(d), t


CS_CASES = list(_cs_cases())


def test_cs_cases_straddle_the_cuts():
    """The cut cases put segments on both sides of each cut."""
    cases = {name: (d, t) for name, d, t in CS_CASES}
    for name, cut in (("the series cut 1e-3", 1e-3), ("TAYLOR_CUT", prop.TAYLOR_CUT)):
        d, t = cases[f"either side of {name}"]
        ax = np.abs(d * t * t)
        assert np.any(ax < cut) and np.any(ax >= cut)
    d, t = cases["either side of BIG_ARG"]
    kt = np.sqrt(d) * t
    assert np.any(kt <= prop.BIG_ARG) and np.any(kt > prop.BIG_ARG)


@pytest.mark.parametrize("case", CS_CASES, ids=lambda c: c[0])
def test_cs_arrays_is_the_masked_kernel(case):
    _, d, t = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = prop.cs_arrays(d, t), cs_arrays_ref(d, t)
    _assert_same_arrays(got, want)


@pytest.mark.parametrize("case", CS_CASES, ids=lambda c: c[0])
def test_sq_integrals_is_the_masked_kernel(case):
    _, d, t = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = prop.sq_integrals(d, t), sq_integrals_ref(d, t)
    _assert_same_arrays(got, want)


def test_frac_is_the_reference_angle():
    """_frac of the one atan2 per node is the reference's [0, pi) angle,
    also on the zero states y = +-0 that neither side of a sign change
    reaches on the test meshes."""
    y = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 1e-300, -2.5, 3.0])
    dy = np.array([1.0, 1.0, -1.0, -1.0, -0.0, 0.0, -1.0, -4.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = prop._frac(np.arctan2(y, dy), y)
    _assert_same_arrays([got], [_frac_angles_arrays_ref(y, dy)])


def _mixed_two_atom_potential():
    rng = np.random.default_rng(16)
    return Potential(4096, rng.uniform(0.0, 2000.0, 4096), ((0.3001, 4.0), (0.7, 2.5)))


def _large_ball_potential():
    """256 cells, a potential of a large ball: density uniform in [0, 50]
    with cells 100-139 at 1e6 to 1e9, those above about 1.05e8 past
    BIG_ARG."""
    rng = np.random.default_rng(17)
    dens = rng.uniform(0.0, 50.0, 256)
    dens[100:140] = 10.0 ** rng.uniform(6.0, 9.0, 40)
    return Potential(256, dens)


@pytest.mark.parametrize("make_q", [_mixed_two_atom_potential, _large_ball_potential],
                         ids=["mixed-4096-two-atoms", "large-ball-256"])
def test_shooting_solution_is_the_masked_kernels(monkeypatch, make_q):
    """ShootingSolution's values and cell masses, at lambda_0, lambda_3 and
    lambda_12, are the floats they were with the padded, masked kernels."""
    q = make_q()
    rng = np.random.default_rng(18)
    points = np.concatenate((q.edges(), q.fused_mesh[0], rng.uniform(0.0, 1.0, 500)))
    lams = [eigenvalue(q, n) for n in (0, 3, 12)]

    def evaluate():
        out = []
        for lam in lams:
            sol = ShootingSolution(q, lam)
            out += [sol.values(points), sol.cell_square_masses(q.edges())]
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate()
        for name, ref in (("cs_arrays", cs_arrays_ref), ("sq_integrals", sq_integrals_ref),
                          ("_scan", scan_ref)):
            monkeypatch.setattr(prop, name, ref)
        want = evaluate()
    _assert_same_arrays(got, want)


# ---------------------------------------------------------------------------
# the scans a long fused mesh keeps


def _kept_scans_potential(nseg, top):
    """A potential whose fused mesh has exactly nseg segments: nseg - 1
    cells of distinct densities up to top, an atom on a node and one inside
    a cell.  With top = 1 every segment is oscillatory at every eigenvalue;
    with top = 1e3 the low eigenvalues mix in hyperbolic segments."""
    grid_n = nseg - 1
    rng = np.random.default_rng([nseg, int(top)])
    atoms = ((grid_n // 3 / grid_n, 5.0), ((2 * grid_n // 3 + 0.4) / grid_n, 2.0))
    q = Potential(grid_n, rng.uniform(0.0, top, grid_n), atoms)
    assert len(q.fused_mesh[1]) == nseg
    return q


def _counting(monkeypatch, name, counts):
    """Wrap prop.<name> so that each call adds one to counts[name]."""
    original = getattr(prop, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    counts[name] = 0
    monkeypatch.setattr(prop, name, counted)


@pytest.mark.parametrize("nseg", [512, 513, 1024, 4097, 4098])
@pytest.mark.parametrize("top", [1.0, 1e3], ids=["oscillatory", "mixed"])
def test_shooting_at_a_kept_eigenvalue_reads_its_scan(monkeypatch, nseg, top):
    """ShootingSolution at the eigenvalue a cold or a warm extremal._ground
    solve has just returned runs no scan and no cs_arrays, and leaves its
    mesh keeping no scan; after eigenvalue, which keeps none, it scans as
    before.  Either way its values and cell masses are the floats of the
    padded, masked kernels on a mesh that keeps nothing."""
    fresh = lambda: _kept_scans_potential(nseg, top)  # noqa: E731
    rng = np.random.default_rng(nseg)
    q_plain, q_cold, q_warm = fresh(), fresh(), fresh()
    points = np.concatenate((q_plain.edges(), q_plain.fused_mesh[0],
                             rng.uniform(0.0, 1.0, 200)))
    lam_plain = eigenvalue(q_plain, 0)
    lam_cold = ex._ground(q_cold, 1e-10)
    lam_warm = ex._ground(q_warm, 1e-10, lam_plain * (1.0 + 1e-4))
    rescan, kept = {"_scan": 1, "cs_arrays": 2}, {"_scan": 0, "cs_arrays": 0}
    cases = ((q_plain, lam_plain, rescan), (q_cold, lam_cold, kept),
             (q_warm, lam_warm, kept))
    counts = {}
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, lam, scans in cases:
            with monkeypatch.context() as mp:
                for name in ("_scan", "cs_arrays"):
                    _counting(mp, name, counts)
                sol = ShootingSolution(q, lam)
                assert counts == scans
            assert id(q.fused_mesh[1]) not in prop._SWEPT
            got.append((sol.values(points), sol.cell_square_masses(q.edges())))
        for name, ref in (("cs_arrays", cs_arrays_ref), ("sq_integrals", sq_integrals_ref),
                          ("_scan", scan_ref)):
            monkeypatch.setattr(prop, name, ref)
        for (values, masses), (_, lam, _) in zip(got, cases):
            q = fresh()
            sol = ShootingSolution(q, lam)
            _assert_same_arrays([values, masses],
                                [sol.values(points), sol.cell_square_masses(q.edges())])


def test_a_gamma_gt1_solve_scans_once_per_sweep(monkeypatch):
    """A gamma > 1 solve at 1024 cells runs one raw scan per phase sweep of
    a long fused mesh, plus one for eigenfunction's node mesh, which is no
    fused mesh: each of its shootings reads the scan of the solve before
    it.  (The first solve sweeps the constant start, one segment.)"""
    counts = {}
    for name in ("_scan", "node_mesh"):
        _counting(monkeypatch, name, counts)
    sweep = prop.phase

    def long_sweep(lens, qs, masses, lam):
        counts["long sweeps"] += len(lens) >= prop.SCAN_MIN_SEGMENTS
        return sweep(lens, qs, masses, lam)

    counts["long sweeps"] = 0
    monkeypatch.setattr(prop, "phase", long_sweep)
    report = solve_extremal_gamma_gt1(PowerWeight(1.0, 1.0), 2.0, SolverConfig(grid_n=1024))
    assert report.converged and len(report.trace) > 10
    assert counts["node_mesh"] == 1
    assert counts["_scan"] == counts["long sweeps"] + 1


def test_only_a_read_only_mesh_keeps_its_scans(monkeypatch):
    """A mesh of read-only arrays that own their data, told to keep its
    scans, is scanned once per lam; a new mesh of equal values is scanned
    afresh, and a mesh not told to, a writeable mesh, a read-only view of
    writeable memory or the kept lens with other densities at every call,
    each giving the floats of a new scan."""
    q = _kept_scans_potential(600, 1e3)
    _, lens, qs, masses = q.fused_mesh
    lam = 300.0
    counts = {}
    _counting(monkeypatch, "_scan", counts)

    def sweep_twice(mesh, lam, keep=True):
        if keep:
            prop.keep_scans(*mesh)
        counts["_scan"] = 0
        theta = prop.phase(*mesh, lam)
        return theta, prop.propagate(*mesh, lam), counts["_scan"]

    theta, states, scans = sweep_twice((lens, qs, masses), lam)
    assert scans == 1
    writeable = tuple(np.array(v) for v in (lens, qs, masses))
    views = tuple(v.view() for v in writeable)
    for v in views:
        v.setflags(write=False)
    new = Potential(q.grid_n, q.density, q.atoms).fused_mesh[1:]
    for mesh, keep, want in ((new, True, 1),
                             (Potential(q.grid_n, q.density, q.atoms).fused_mesh[1:],
                              False, 2),
                             (writeable, True, 2), (views, True, 2)):
        got = sweep_twice(mesh, lam, keep)
        assert got[0] == theta and got[2] == want
        assert all(np.array_equal(g, w) for g, w in zip(got[1], states))
    # other densities: changed in place between the sweeps, or the kept
    # lens with other read-only densities; propagate sees them
    writeable[1][100] += 50.0
    other_qs = np.array(writeable[1])
    other_qs.setflags(write=False)
    want = prop._propagate_scan(*(np.array(v) for v in writeable), lam)
    sweep_twice((lens, qs, masses), lam)
    for mesh in (writeable, (lens, other_qs, masses)):
        counts["_scan"] = 0
        got = prop.propagate(*mesh, lam)
        assert counts["_scan"] == 1
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # 0.0 and -0.0 are kept apart
    assert sweep_twice((lens, qs, masses), 0.0)[2] == 1
    counts["_scan"] = 0
    prop.propagate(lens, qs, masses, -0.0)
    assert counts["_scan"] == 1


def test_no_kept_scan_outlives_its_mesh():
    q = _kept_scans_potential(1024, 1e3)
    ex._ground(q, 1e-10)
    lens = weakref.ref(q.fused_mesh[1])
    assert id(lens()) in prop._SWEPT
    del q
    gc.collect()
    assert lens() is None
    assert all(memo[2]() is not None for memo in prop._SWEPT.values())


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_allocates_no_padding():
    """One sweep of the 4096-cell, two-atom mesh (4098 segments) peaks at
    most at 0.7 times the padded kernel, which scans 8192 blocks."""
    rng = np.random.default_rng(15)
    q = Potential(4096, rng.uniform(0.0, 100.0, 4096), ((0.3, 4.0), (0.7, 2.5)))
    mesh = q.fused_mesh[1:]
    assert len(mesh[0]) == 4098
    for lam in (50.0, 5000.0):
        assert (_peak_bytes(prop._phase_scan, *mesh, lam)
                <= 0.7 * _peak_bytes(phase_scan_ref, *mesh, lam))


# ---------------------------------------------------------------------------
# run fusing


def _assert_same_mesh(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def _assert_fused_mesh(got, want):
    """build_segments' mesh equals want, in the form phase sweeps."""
    _assert_same_mesh(got, want)
    assert_fused_form(got)


def _runs_potential(rng, grid_n, n_levels, n_atoms):
    """Densities from a few levels (so runs of equal density form) and
    atoms at run ends, at other nodes and inside cells."""
    levels = rng.uniform(0.0, 5.0, n_levels)
    dens = levels[rng.integers(0, n_levels, grid_n)]
    ends = [j for j in range(1, grid_n) if dens[j] != dens[j - 1]]
    pos = set()
    for _ in range(n_atoms):
        kind = rng.integers(0, 3)
        if kind == 0 and ends:
            pos.add(int(rng.choice(ends)) / grid_n)
        elif kind == 1 and grid_n > 1:
            pos.add(int(rng.integers(1, grid_n)) / grid_n)
        else:
            pos.add(float((rng.integers(0, grid_n) + rng.uniform(0.01, 0.99)) / grid_n))
    atoms = tuple((p, float(rng.uniform(0.1, 2.0))) for p in sorted(pos))
    return dens, atoms


@given(seed=st.integers(0, 2**32 - 1), grid_n=st.integers(1, 4096),
       n_levels=st.integers(1, 4), n_atoms=st.integers(0, 4))
def test_fused_runs_equal_the_loop(seed, grid_n, n_levels, n_atoms):
    dens, atoms = _runs_potential(np.random.default_rng(seed), grid_n, n_levels,
                                  n_atoms)
    want = fuse_loop_ref(grid_n, dens, atoms)
    _assert_same_mesh(fuse_runs_ref(grid_n, dens, atoms), want)
    _assert_fused_mesh(prop.build_segments(grid_n, dens, atoms), want)
    _assert_same_mesh(prop.node_mesh(grid_n, dens, atoms),
                      node_mesh_ref(grid_n, dens, atoms))


@pytest.mark.parametrize("grid_n", list(range(1, 70)) + [100, 333, 1000, 4095, 4096])
def test_fused_runs_equal_the_loop_on_every_small_grid(grid_n):
    rng = np.random.default_rng(grid_n)
    for n_levels, n_atoms in ((1, 0), (1, 3), (2, 2), (grid_n, 0), (grid_n, 3)):
        dens, atoms = _runs_potential(rng, grid_n, n_levels, n_atoms)
        _assert_fused_mesh(prop.build_segments(grid_n, dens, atoms),
                           fuse_loop_ref(grid_n, dens, atoms))
        _assert_same_mesh(prop.node_mesh(grid_n, dens, atoms),
                          node_mesh_ref(grid_n, dens, atoms))


@pytest.mark.parametrize("grid_n", list(range(1, 64)) + [64, 100, 256, 511, 4096])
def test_one_run_mesh_equals_the_loop(grid_n):
    """Constant densities take the one-run case on every grid size: atoms
    at nodes, one ulp past a node and inside cells."""
    rng = np.random.default_rng(grid_n)
    nodes = [j / grid_n for j in range(1, grid_n)]
    for value in (0.0, float(rng.uniform(0.0, 5.0))):
        dens = np.full(grid_n, value)
        for n_atoms in range(5):
            pos = set()
            for _ in range(n_atoms):
                kind = rng.integers(0, 3)
                if kind < 2 and nodes:
                    node = float(rng.choice(nodes))
                    pos.add(node if kind == 0 else float(np.nextafter(node, 1.0)))
                else:
                    pos.add(float((rng.integers(0, grid_n) + rng.uniform(0.01, 0.99))
                                  / grid_n))
            atoms = tuple((p, float(rng.uniform(0.1, 2.0))) for p in sorted(pos))
            _assert_fused_mesh(prop.build_segments(grid_n, dens, atoms),
                               fuse_loop_ref(grid_n, dens, atoms))
            _assert_same_mesh(prop.node_mesh(grid_n, dens, atoms),
                              node_mesh_ref(grid_n, dens, atoms))


@st.composite
def _one_run_atoms(draw, grid_n):
    """0 to 3 atoms on nodes, one ulp past a node or inside cells, as a
    Potential keeps them."""
    atoms = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["node", "ulp", "inside"]))
        if kind != "inside" and grid_n > 1:
            pos = draw(st.integers(1, grid_n - 1)) / grid_n
            if kind == "ulp":
                pos = math.nextafter(pos, 1.0)
        else:
            pos = (draw(st.integers(0, grid_n - 1))
                   + draw(st.floats(0.01, 0.99))) / grid_n
        atoms.append((pos, draw(st.floats(0.1, 2.0))))
    return _merge_atoms(atoms)


@given(data=st.data(), grid_n=st.integers(1, 4096),
       value=st.sampled_from([0.0, -0.0, 1e-300, 1.0, 1e8]))
def test_a_one_density_grid_of_any_size_is_run_mesh_s(data, grid_n, value):
    """build_segments of a grid of one density is run_mesh's mesh of that
    density, floats in tuples, with no size threshold, and the loop's."""
    atoms = data.draw(_one_run_atoms(grid_n))
    dens = np.full(grid_n, value)
    got = prop.build_segments(grid_n, dens, atoms)
    want = prop.run_mesh(value, atoms)
    assert got == want and repr(got) == repr(want)   # repr tells -0.0 apart
    _assert_fused_mesh(got, fuse_loop_ref(grid_n, dens, atoms))
