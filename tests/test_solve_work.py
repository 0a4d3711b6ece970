"""The eigen-solves against the reference loops in tests/reference.py:
the same floats, bit for bit, from fewer phase sweeps."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import slmajorant.eigensolver as es
import slmajorant.extremal as ex
import slmajorant.measures as ms
import slmajorant.oracle as orc
from slmajorant import (ConstantWeight, ParameterError, Potential, PowerWeight,
                        SolverConfig, atom_grid_search, eigenfunction,
                        parse_weight, solve_extremal_gamma_eq1,
                        solve_extremal_gamma_gt1)
from slmajorant import _propagate as prop
from conftest import PI2, random_potential
from reference import (eigenvalue_ref, eigenvalue_warm_one_sided_ref,
                       eigenvalue_warm_predicted_ref, eigenvalue_warm_ref)

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


def _warm(q, n: int, tol: float, guess: float) -> float:
    """A warm solve on q's fused mesh and phase memo, as extremal._ground
    makes it."""
    return es._eigenvalue_warm(q.fused_mesh, q.phase_memo, n, tol, guess)


def _guesses(lam: float, n: int) -> list[float]:
    """Guesses 1e-9 to 50 % off lam on both sides, guesses at and below
    the lower end of the global bracket (where the lower end clips), and
    guesses at and past 4 pi^2 (n+1)^2, the spectral upper bound of
    q = 0, far above lam for the smaller potentials."""
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
            assert _warm(q, n, tol, guess) == eigenvalue_warm_ref(
                q, n, tol, guess), guess


@pytest.mark.parametrize("n", [0, 3, 16])
@pytest.mark.parametrize("case", CASES)
def test_no_solve_sweeps_a_lam_twice(case, n, sweep_counter):
    q = _potential(case)
    lam = es.eigenvalue(q, n)
    assert len(sweep_counter) == len(set(sweep_counter))
    for guess in _guesses(lam, n):
        sweep_counter.clear()
        _warm(q, n, 1e-10, guess)
        assert len(sweep_counter) == len(set(sweep_counter)), guess


def test_warm_solve_computes_no_seminorm_and_builds_no_potential(monkeypatch):
    # the warm bracket has no upper clip, so no guess needs upper_bound:
    # not one at or past 4 pi^2 (n+1)^2, nor one far above the root that
    # once fell back to the cold solve
    calls, built = [], []
    seminorm, post_init = ms.seminorm, Potential.__post_init__

    def counted(q, ell):
        calls.append(ell)
        return seminorm(q, ell)

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    for case in CASES:
        q = _potential(case)
        for n in (0, 3):
            lam = eigenvalue_ref(q, n)
            with monkeypatch.context() as mp:
                for mod in (es, ms):   # Potential.seminorm_2 reads ms.seminorm
                    mp.setattr(mod, "seminorm", counted)
                mp.setattr(Potential, "__post_init__", counted_post_init)
                for guess in _guesses(lam, n):
                    _warm(q, n, 1e-10, guess)
            assert calls == [] and built == []
    atoms = [(0.3, 5.0)]
    with monkeypatch.context() as mp:
        for mod in (es, ms):
            mp.setattr(mod, "seminorm", counted)
        mp.setattr(Potential, "__post_init__", counted_post_init)
        lam = ex._atom_ground(atoms, 1e-10, 1e3)
    assert calls == [] and built == []
    want = es.eigenvalue(Potential.from_atoms(atoms), 0, 1e-10)
    assert lam == pytest.approx(want, rel=1e-12, abs=0.0)


def _sweeps_of(sweep_counter, solve, mesh, memo, n, tol, guess):
    """What solve returns (or the message it raises) from a copy of memo,
    and the lams it sweeps, in order."""
    sweep_counter.clear()
    try:
        out = "lam", solve(mesh, dict(memo), n, tol, guess)
    except es.InternalSolverError as exc:
        out = "raised", str(exc)
    return out, list(sweep_counter)


def _assert_predicted_sweeps(sweep_counter, calls):
    """Each warm solve (mesh, memo, n, tol, guess) returns the lambda of
    the predicted-step reference, or raises its error, after sweeping the
    same lams in the same order."""
    for call in calls:
        got = _sweeps_of(sweep_counter, es._eigenvalue_warm, *call)
        assert got == _sweeps_of(sweep_counter, eigenvalue_warm_predicted_ref, *call), call[2:]


@pytest.mark.parametrize("n", [0, 3, 16])
@pytest.mark.parametrize("case", CASES)
def test_warm_solves_sweep_the_predicted_step_s_lams(case, n, sweep_counter):
    """From guesses on both sides of lambda, at and below the lower end's
    free-particle bound and far above, on a fresh memo and on the memo a
    cold solve has filled."""
    q = _potential(case)
    lam = eigenvalue_ref(q, n)
    es.eigenvalue(q, n)
    filled = dict(q.phase_memo)
    _assert_predicted_sweeps(sweep_counter, [
        (q.fused_mesh, memo, n, tol, guess) for guess in _guesses(lam, n)
        for memo in ({}, filled) for tol in (1e-10, 1e-13)])


def _recorded_warm_solves(monkeypatch, run) -> list[tuple]:
    """(mesh, memo, n, tol, guess) of every warm solve that run() makes
    through extremal's global, with a copy of the memo it started from."""
    calls = []
    warm = es._eigenvalue_warm

    def recorded(mesh, memo, n, tol, guess, scans=None):
        calls.append((mesh, dict(memo), n, tol, guess))
        return warm(mesh, memo, n, tol, guess, scans)

    with monkeypatch.context() as mp:
        mp.setattr(ex, "_eigenvalue_warm", recorded)
        run()
    return calls


@pytest.mark.parametrize("search", ["scan", "k = 2", "gamma = 2, 1024 cells"])
def test_recorded_warm_solves_sweep_the_predicted_step_s_lams(
        monkeypatch, sweep_counter, search):
    """The warm solves of an atom scan and a 2-atom search, on the atom
    meshes they build, and of a gamma > 1 solve on a 1024-cell grid,
    whose fused meshes the scan sweeps."""
    w = PowerWeight(1.5, 1.25)
    run = {"scan": lambda: atom_grid_search(w, 201),
           "k = 2": lambda: solve_extremal_gamma_eq1(w, 2, SolverConfig(k_atoms=2,
                                                                        grid_n=64)),
           "gamma = 2, 1024 cells": lambda: solve_extremal_gamma_gt1(
               PowerWeight(1.0, 1.0), 2.0, SolverConfig(grid_n=1024))}[search]
    calls = _recorded_warm_solves(monkeypatch, run)
    assert len(calls) > 10
    long = [len(mesh[1]) >= prop.SCAN_MIN_SEGMENTS for mesh, *_ in calls]
    assert all(long[1:]) if search.startswith("gamma") else not any(long)
    _assert_predicted_sweeps(sweep_counter, calls)


def test_gamma_gt1_saves_two_sweeps_per_solve(monkeypatch, sweep_counter):
    solves = []

    def counting(solve):
        def wrapped(*args, **kwargs):
            solves.append(args[0])
            return solve(*args, **kwargs)
        return wrapped

    def run():
        solves.clear()
        sweep_counter.clear()
        report = solve_extremal_gamma_gt1(PowerWeight(1.0, 1.0), 2.0,
                                          SolverConfig(grid_n=256))
        return report, len(solves), len(sweep_counter)

    def ground_ref(pot, tol, guess=None):
        # the reference solves take the potential, which every solve of
        # the loop gets through extremal._ground
        if guess is None:
            return eigenvalue_ref(pot, 0, tol)
        return eigenvalue_warm_ref(pot, 0, tol, guess)

    with monkeypatch.context() as mp:
        mp.setattr(ex, "_ground", counting(ground_ref))
        ref, ref_solves, ref_sweeps = run()

    builds = []
    build_segments = ms.build_segments

    def counted_build(*args):
        builds.append(args[0])
        return build_segments(*args)

    monkeypatch.setattr(ms, "build_segments", counted_build)
    monkeypatch.setattr(ex, "eigenvalue", counting(es.eigenvalue))
    monkeypatch.setattr(ex, "_eigenvalue_warm", counting(es._eigenvalue_warm))
    new, solves_n, sweeps = run()
    assert (new.M, new.residual, new.trace) == (ref.M, ref.residual, ref.trace)
    assert solves_n == ref_solves
    assert sweeps <= ref_sweeps - 2 * ref_solves
    # each iterate's potential builds its fused mesh once, shared by its
    # solve, its ShootingSolution and the final eigenfunction's phase check
    assert len(builds) == solves_n


def _paired_warm_sweeps(monkeypatch, run) -> list[tuple[int, int]]:
    """Calls run() with every warm solve of the outer loops made twice: by
    the library, through extremal._ground (on a new potential's mesh and
    phase memo) or _atom_ground (on an atom solve's own), and by the
    one-sided step-by-step rule on the cell loop's mesh of the potential.
    Both must give the same lambda (_ground's record holds it as lam);
    returns each solve's pair of sweep counts (library, one-sided rule)."""
    pairs = []

    def paired(solve, potential, lam_of):
        def wrapped(arg, tol, guess=None):
            if guess is None:
                return solve(arg, tol)
            q = potential(arg)
            assert not q.phase_memo   # every warm solve sweeps afresh
            want, want_count = eigenvalue_warm_one_sided_ref(q, 0, tol, guess)
            with mock.patch.object(prop, "phase", side_effect=prop.phase) as sweeps:
                got = solve(arg, tol, guess)
            assert lam_of(got) == want, guess
            pairs.append((sweeps.call_count, want_count))
            return got
        return wrapped

    monkeypatch.setattr(ex, "_ground", paired(ex._ground, lambda pot: pot,
                                              lambda solved: solved.lam))
    monkeypatch.setattr(ex, "_atom_ground",
                        paired(ex._atom_ground, Potential.from_atoms, lambda lam: lam))
    run()
    return pairs


@pytest.mark.parametrize("weight", ["power:1.545,1.231", "const:1"])
def test_atom_scan_sweeps_at_most_80_percent_of_the_one_sided_rule(
        monkeypatch, weight):
    pairs = _paired_warm_sweeps(
        monkeypatch, lambda: atom_grid_search(parse_weight(weight), 201))
    assert len(pairs) > 200
    assert all(new <= old for new, old in pairs)
    assert sum(new for new, _ in pairs) <= 0.8 * sum(old for _, old in pairs)


def test_gamma_gt1_warm_solves_sweep_less_than_the_one_sided_rule(monkeypatch):
    pairs = _paired_warm_sweeps(monkeypatch, lambda: solve_extremal_gamma_gt1(
        PowerWeight(1.0, 1.0), 2.0, SolverConfig(grid_n=256)))
    assert all(new <= old for new, old in pairs)
    assert sum(new for new, _ in pairs) < sum(old for _, old in pairs)


@pytest.mark.parametrize("grid_n", [16, 600])
@pytest.mark.parametrize("n", [0, 3])
def test_eigenfunction_check_reads_the_solve_s_phases(grid_n, n, sweep_counter):
    # a 3-atom potential on 16 cells sweeps tuples, 600 cells the scan
    rng = np.random.default_rng(grid_n)
    q = Potential(grid_n, rng.uniform(0.0, 50.0, grid_n) if grid_n > 16
                  else np.zeros(16), ((0.2, 3.0), (0.55, 1.5), (0.8, 4.0)))
    assert (len(q.fused_mesh[1]) >= prop.SCAN_MIN_SEGMENTS) == (grid_n > 16)
    lam = es.eigenvalue(q, n)
    sweep_counter.clear()
    pair = eigenfunction(q, lam, n)
    assert pair.lam == lam and sweep_counter == []
    # another index on the same potential sweeps only lams not yet swept
    swept = set(q.phase_memo)
    es.eigenvalue(q, n + 1)
    assert sweep_counter and not swept & set(sweep_counter)
    assert len(sweep_counter) == len(set(sweep_counter))


# (cold, warm) solves of the gamma = 1 atom searches, as extremal and
# oracle call them through the module globals that a tracer rebinds
ATOM_SEARCH_SOLVES = {
    ("const", "scan"): (1, 227), ("const", "k = 2"): (2, 329),
    ("power", "scan"): (1, 227), ("power", "k = 2"): (2, 998),
}


@pytest.mark.parametrize("weight, search", sorted(ATOM_SEARCH_SOLVES))
def test_atom_searches_solve_through_the_traced_entries(monkeypatch, weight, search):
    """Every solve of atom_grid_search(w, 201) and of a 2-atom
    solve_extremal_gamma_eq1 calls eigenvalue or _eigenvalue_warm through
    a global of extremal or oracle, so a tracer that rebinds those globals
    sees all of them; a solve that left them would change the counts."""
    calls = {"eigenvalue": 0, "_eigenvalue_warm": 0}
    for mod in (ex, orc):
        for name in calls:
            if name in vars(mod):
                fn = getattr(mod, name)

                def counted(*args, _name=name, _fn=fn):
                    calls[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(mod, name, counted)
    w = {"const": ConstantWeight(1.3), "power": PowerWeight(1.5, 1.25)}[weight]
    if search == "scan":
        atom_grid_search(w, 201)
    else:
        solve_extremal_gamma_eq1(w, 2, SolverConfig(k_atoms=2, grid_n=64))
    assert (calls["eigenvalue"], calls["_eigenvalue_warm"]) == ATOM_SEARCH_SOLVES[
        weight, search]


def test_a_warm_guess_that_is_not_finite_is_refused(sweep_counter):
    # a guess that is not finite brackets nothing: the warm solve refuses
    # it before any sweep
    for guess in (math.nan, math.inf, -math.inf):
        q = Potential(16, np.zeros(16), ((0.3, 5.0),))
        with pytest.raises(ParameterError, match="not finite"):
            _warm(q, 0, 1e-10, guess)
        assert sweep_counter == [] and q.phase_memo == {}


@pytest.mark.parametrize("excess", [1.0, math.nan])
def test_a_phase_failing_at_the_free_particle_bound_violates_both_brackets(
        monkeypatch, excess):
    # a phase above every target (or NaN) fails the lower end at the
    # free-particle bound: the cold solve and the warm one, from any
    # guess, raise the same error
    atoms = ((0.3, 5.0),)
    sweeps, runs = [], []
    for n in (0, 3):
        monkeypatch.setattr(prop, "phase", lambda lens, qs, masses, lam, scans=None, n=n:
                            sweeps.append(lam) or (n + 1) * math.pi + excess)
        with pytest.raises(es.InternalSolverError) as cold:
            es.eigenvalue(Potential(16, np.zeros(16), atoms), n, 1e-10)
        low = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
        prefix = f"phase bracket violated: theta({low})="
        assert str(cold.value).startswith(prefix)
        for guess in (low, 50.0 * (n + 1) ** 2, 1e3, 1e9):
            with pytest.raises(es.InternalSolverError) as warm:
                _warm(Potential(16, np.zeros(16), atoms), n, 1e-10, guess)
            assert str(warm.value).startswith(prefix)
            # the same theta at the lower end; only the upper ends differ
            assert (str(warm.value).split(", theta(")[0]
                    == str(cold.value).split(", theta(")[0])
            # the predicted-step search's sweeps and message
            mesh = Potential(16, np.zeros(16), atoms).fused_mesh
            for solve in (es._eigenvalue_warm, eigenvalue_warm_predicted_ref):
                sweeps.clear()
                with pytest.raises(es.InternalSolverError) as raised:
                    solve(mesh, {}, n, 1e-10, guess)
                assert str(raised.value) == str(warm.value)
                runs.append(list(sweeps))
            assert runs[-2] == runs[-1]


@st.composite
def adversarial_potentials(draw):
    """Grids of 1 to 600 cells (past SCAN_MIN_SEGMENTS) with densities up
    to 1e8: uniform, with one huge cell, or with a wide barrier, plus 0 to
    3 atoms; or the 16-cell atom shape of the gamma = 1 solves."""
    shape = draw(st.sampled_from(["uniform", "huge cell", "barrier", "atoms"]))
    atoms = draw(st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(1e-2, 1e4)),
                          min_size=shape == "atoms", max_size=3))
    if shape == "atoms":
        return Potential(16, np.zeros(16), tuple(atoms))
    grid_n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dens = rng.uniform(0.0, draw(st.sampled_from([0.0, 1.0, 1e2, 1e4, 1e6, 1e8])),
                       grid_n)
    height = 10.0 ** draw(st.floats(2.0, 8.0))
    if shape == "huge cell":
        dens[rng.integers(grid_n)] = height
    elif shape == "barrier":
        a = draw(st.integers(0, grid_n - 1))
        dens[a:draw(st.integers(a + 1, grid_n))] = height
    return Potential(grid_n, dens, tuple(atoms))


def _edge_guess(lam: float, k: int, side: float) -> float:
    """A guess whose step-k end on the given side (-1 lower, +1 upper)
    is lam, or as near as the floats next to lam / (1 + side 1e-6 4**k)
    get it."""
    guess = lam / (1.0 + side * 1e-6 * 4.0**k)
    best = guess
    for _ in range(8):
        end = guess + side * max(1e-6 * guess, 1e-9) * 4.0**k
        if end == lam:
            return guess
        best = guess
        guess = math.nextafter(guess, math.inf if end < lam else -math.inf)
    return best


guess_specs = st.one_of(
    st.tuples(st.just("relative"), st.sampled_from([-1.0, 1.0]), st.floats(-10.0, 0.0)),
    st.tuples(st.just("edge"), st.sampled_from([-1.0, 1.0]), st.integers(0, 9)),
    st.tuples(st.just("fixed"), st.sampled_from(["low", "below low", "above low",
                                                 "under base", "base", "past base",
                                                 "3 lam"]), st.just(0)),
)


def _guess(spec, lam: float, n: int) -> float:
    kind, a, b = spec
    if kind == "relative":
        return lam * (1.0 + a * 10.0**b)
    if kind == "edge":
        return _edge_guess(lam, b, a)
    low = PI2 * (n + 1) ** 2 * (1.0 - 1e-12)
    base = 4.0 * PI2 * (n + 1) ** 2
    return {"low": low, "below low": 0.9 * low, "above low": low * (1.0 + 1e-9),
            "under base": base * (1.0 - 1e-9), "base": base,
            "past base": base * 1.2, "3 lam": 3.0 * lam}[a]


# A prediction past the first passing step costs its own sweep and a
# bisection below the predicted step K, ceil(log2(K)) sweeps, where the
# step-by-step rule sweeps at least one end.  Two float gaps of one sign
# differ by at least 2**-53 of the smaller, so the secant predicts at
# most 2**53 secant widths past its second end, and a width is at most
# 1e13 w_0: K stays below 64, and so at most 6 more sweeps.  The bound
# keeps one sweep in hand.
OVERSHOOT_SWEEPS = 7


@given(q=adversarial_potentials(), n=st.sampled_from([0, 3, 16]),
       specs=st.lists(guess_specs, min_size=1, max_size=4))
def test_predicted_step_keeps_the_one_sided_bracket(q, n, specs):
    """On adversarial potentials and guesses, the warm solve returns the
    two bracket-search references' lambda, bit for bit.  A phase that is
    flat at the guess and steep at the root can make the secant overshoot,
    so the sweeps are bounded by the one-sided rule's plus the bisection
    that follows an overshoot."""
    lam = eigenvalue_ref(q, n)
    solves = []
    with mock.patch.object(prop, "phase", side_effect=prop.phase) as sweeps:
        for spec in specs:
            guess = _guess(spec, lam, n)
            fresh = Potential(q.grid_n, q.density, q.atoms)   # no phase memo
            sweeps.reset_mock()
            solves.append((guess, _warm(fresh, n, 1e-10, guess), sweeps.call_count))
    for guess, got, count in solves:
        want, want_count = eigenvalue_warm_one_sided_ref(q, n, 1e-10, guess)
        assert got == want == eigenvalue_warm_ref(q, n, 1e-10, guess), guess
        assert count <= want_count + OVERSHOOT_SWEEPS, guess
    # the lams of the predicted-step search, in its order, also where the
    # secant overshoots and the search bisects back
    with mock.patch.object(prop, "phase", side_effect=prop.phase) as sweeps:
        for guess, _, _ in solves:
            runs = []
            for solve in (es._eigenvalue_warm, eigenvalue_warm_predicted_ref):
                sweeps.reset_mock()
                runs.append((solve(Potential(q.grid_n, q.density, q.atoms).fused_mesh,
                                   {}, n, 1e-10, guess),
                             [c.args[3] for c in sweeps.call_args_list]))
            assert runs[0] == runs[1], guess
