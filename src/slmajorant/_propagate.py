"""Exact transfer-matrix propagation for -y'' + q y = lam y.

On a segment where q - lam =: d is constant the solution basis is

    c(t) = cos(omega t) / cosh(kappa t),   s(t) = sin(omega t)/omega or
    sinh(kappa t)/kappa,                   omega = sqrt(-d), kappa = sqrt(d),

so one 2x2 multiply advances (y, y') across a whole segment with no
discretization error.  Atoms apply the derivative jump y' += m * y.
Scales are tracked apart from the states (log-scales, or exact powers of
two), so arbitrarily large potentials cannot overflow.

The Pruefer angle theta = atan2(y, y') is unwound continuously: on
oscillatory segments the rescaled angle atan2(omega*y, y') advances
linearly by omega * len (exact for constant coefficients), while on
non-oscillatory segments the solution has at most one zero, counted from
the sign change of y.  A zero landing exactly on a segment boundary is
counted once, in the segment it terminates.

phase and propagate take a mesh in one form and sweep it in one of two
ways with the same rules, picked at their top by its length.  Below
SCAN_MIN_SEGMENTS segments each steps one segment at a time in its own
scalar loop.  The two loops share their step formulas, the oscillatory
and cosh/sinh steps inlined and the rare ones through cs_scalar; they
differ in the renormalization only (phase renormalizes the state after
an atom jump, propagate before it, keeping the norm in a log-scale).
Longer meshes take every boundary state from one prefix product of the
segment matrices (Blelloch, "Prefix sums and their applications", 1990):
pairs multiply level by level, each product rescaled by a power of two,
and the states come back down the levels, bit for bit as if the mesh
were padded with identities to a power of two, though a level with an
odd count only pairs its last block with one identity.  The basis values
and the angle increments take one path in numpy: the oscillatory
formulas on the whole arrays, then the segments that need another
formula overwritten, with atan2(y, y') taken once per node.  The two
ways agree to rounding (about 1e-13 relative in theta), not bit for
bit.

A long mesh of read-only arrays, as build_segments and run_mesh give
it, can be told to keep the scans (states and basis values) of the last
two lam swept on it (keep_scans): it is then scanned once per swept
(mesh, lam), and propagate and sq_integrals read the scans from there.
A solve ends on one of its last two sweeps, so ShootingSolution at the
solved eigenvalue runs no scan and no cs_arrays of its own; the mesh
then lets its scans go (take_swept_basis), and at the latest they go
with the mesh.  Only a solve followed by a shooting keeps them: kept
where no shooting reads them, they only add to the peak memory.

One mesh builder: _mesh cuts [0, 1] at given nodes j / grid_n and at the
atoms, and gives each piece the density of the cell its right end closes
(an atom is inserted into the run it falls in).  node_mesh cuts at every
node, so each piece lies in its right-open cell; build_segments cuts only
where the density changes, fusing runs of equal density (cached per
potential as Potential.fused_mesh).  Neither makes a piece of length 0.
run_mesh builds the fused mesh of a single run, cut only at the atoms:
build_segments takes it for every grid of one density, whatever its
size, and the warm atom solves build it from their atoms with no
Potential and no grid (extremal._atom_ground).

build_segments (with run_mesh) is also the one place where a mesh takes
the form the sweeps read: below SCAN_MIN_SEGMENTS segments, tuples of
floats, which the scalar loops read with no conversion; from there on,
read-only arrays for the scan.  A short array mesh, as node_mesh gives
it, is converted once with .tolist().  The gamma = 1 solvers sweep one
run of density 0 cut at 1-3 atoms, meshes of 2-4 segments, about 17k
solves of about 7 sweeps each per benchmark pass.  A sweep there is a
few microseconds, so what surrounds it counts as much: run_mesh builds a
single run's tuples straight from the floats with no numpy array, and
the scalar loops inline only their two hot branches, oscillatory and
cosh/sinh.
The series, non-oscillatory cos/sin and exp-scaled steps go through
cs_scalar: a seed-1 extremal-gt1 bench pass takes them 11, 0 and 0 times
in phase, and cosh/sinh 189,147 times.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

TAYLOR_CUT = 1e-8   # |q - lam| below this uses the 4-term series branch
BIG_ARG = 40.0      # kappa * t beyond this switches to exp-scaled transfer
# Meshes with fewer segments than this are swept by the scalar loops.  At
# 256 / 384 / 512 / 1024 / 4096 segments the loop takes 0.7 / 1.0 / 1.1 /
# 1.8 / 2.8 times the scan's time on mixed meshes and 0.7 / 1.0 / 1.2 /
# 1.9 / 2.9 times on all-oscillatory ones (two atoms; Xeon, 2 CPUs); 512
# keeps the bits of the 256-cell grids, which the loop sweeps.
SCAN_MIN_SEGMENTS = 512
_SCAN_TOP = 64      # the scan's top level: blocks left to a scalar loop

_PI = math.pi
_LN2 = math.log(2.0)
_EYE = np.eye(2)[:, :, None]


# ---------------------------------------------------------------------------
# segment mesh


def _mesh(grid_n, dens, atoms, starts):
    """Mesh cut at the nodes starts / grid_n (ascending cells in
    1..grid_n-1) and at the atoms (ascending and distinct, as a
    Potential's are).

    Returns (xs, lens, qs, masses): xs of length nseg + 1, and masses[i]
    the atom mass at xs[i + 1].  Each piece takes the density of the cell
    its right end closes: a cut every node places each piece in its
    right-open cell [j, j + 1) / grid_n.  The densities are gathered once,
    one per run; an atom inside a run is inserted before the run's end
    with the run's density, and an atom on a cut node only puts its mass
    there.
    """
    ends = np.append(starts, grid_n) / grid_n
    xs, qs = ends, dens[np.append(0, starts)]
    if not atoms:
        masses = np.zeros(len(ends))
    else:
        pos, mass = np.array(atoms).T
        run = np.searchsorted(ends, pos)
        inside = ends[run] != pos
        # each atom's index among the right ends: its run end's, moved on
        # by the atoms inserted before it
        slot = run + (np.cumsum(inside) - inside)
        node = np.ones(len(ends) + np.count_nonzero(inside), dtype=bool)
        node[slot[inside]] = False
        xs, run_qs, qs = np.empty(len(node)), qs, np.empty(len(node))
        xs[node], xs[~node] = ends, pos[inside]
        qs[node], qs[~node] = run_qs, run_qs[run[inside]]
        masses = np.zeros(len(node))
        masses[slot] = mass
    xs = np.concatenate(([0.0], xs))
    return xs, xs[1:] - xs[:-1], qs, masses


def node_mesh(grid_n, density, atoms):
    """Per-node mesh: every grid node j / grid_n and atom position is a
    breakpoint, and each piece takes the density of its right-open cell.
    Returns (xs, lens, qs, masses) as _mesh does."""
    return _mesh(grid_n, np.asarray(density, dtype=float), atoms,
                 np.arange(1, grid_n))


def build_segments(grid_n, density, atoms):
    """Fused mesh for the phase sweep: maximal runs of equal density,
    split at atoms, in the form phase sweeps.

    Returns (xs, lens, qs, masses) like node_mesh, whose breakpoints
    include these.  A run ends at j / grid_n where the density changes;
    an atom inside a run splits it, and one at a run end closes that run.
    A mesh below SCAN_MIN_SEGMENTS segments comes as tuples of floats, one
    from SCAN_MIN_SEGMENTS on as read-only arrays.  A grid of one density,
    of any size, is one run, run_mesh's; that relies on atoms being a
    Potential's, as run_mesh takes them.
    """
    dens = np.asarray(density, dtype=float)
    cuts = np.flatnonzero(dens[1:] != dens[:-1])
    if not cuts.size:
        return run_mesh(float(dens[0]), atoms)
    mesh = _mesh(grid_n, dens, atoms, cuts + 1)
    if len(mesh[1]) < SCAN_MIN_SEGMENTS:
        return tuple(tuple(v.tolist()) for v in mesh)
    return _read_only(mesh)


def run_mesh(value, atoms):
    """Fused mesh of one run of density value over [0, 1], split at the
    atoms only, in the form phase sweeps: the mesh build_segments gives a
    grid of one density, and the one the warm gamma = 1 atom solves build
    from their atoms.

    atoms must be a Potential's (``measures._merge_atoms``): Python
    floats, ascending, distinct and inside (0, 1).  A mesh below
    SCAN_MIN_SEGMENTS segments is built straight from the floats as
    tuples, with no numpy array; a longer one is the same floats as
    read-only arrays, as _mesh gives them.
    """
    pos, masses = zip(*atoms) if atoms else ((), ())
    xs = (0.0, *pos, 1.0)
    lens = tuple([b - a for a, b in zip(xs, xs[1:])])
    mesh = xs, lens, (value,) * len(lens), (*masses, 0.0)
    if len(lens) < SCAN_MIN_SEGMENTS:
        return mesh
    return _read_only(tuple(np.array(v, dtype=float) for v in mesh))


def _read_only(mesh):
    for v in mesh:
        v.setflags(write=False)
    return mesh


# ---------------------------------------------------------------------------
# basis values


def cs_scalar(d: float, t: float) -> tuple[float, float, float]:
    """(c, s, log_scale) with true values c*exp(log_scale), s*exp(log_scale)."""
    x = d * t * t
    if abs(x) < TAYLOR_CUT:
        c = 1.0 + x * (0.5 + x * (1.0 / 24.0 + x / 720.0))
        s = t * (1.0 + x * (1.0 / 6.0 + x * (1.0 / 120.0 + x / 5040.0)))
        return c, s, 0.0
    if d < 0.0:
        om = math.sqrt(-d)
        return math.cos(om * t), math.sin(om * t) / om, 0.0
    k = math.sqrt(d)
    kt = k * t
    if kt <= BIG_ARG:
        return math.cosh(kt), math.sinh(kt) / k, 0.0
    e = math.exp(-2.0 * kt)
    return 0.5 * (1.0 + e), 0.5 * (1.0 - e) / k, kt


def cs_arrays(d: np.ndarray, t: np.ndarray):
    """Vectorized cs_scalar; returns (c, s, log_scale) arrays.

    cos(omega t) and sin(omega t) / omega are taken on the whole arrays,
    with omega = sqrt(|d|); then the segments of another branch are
    overwritten: the 4-term series below TAYLOR_CUT, cosh/sinh, and the
    exp-scaled pair past BIG_ARG."""
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    x = d * t * t
    root = np.sqrt(np.abs(d))
    kt = root * t
    c = np.cos(kt)
    with np.errstate(invalid="ignore"):   # 0 / 0 only where d = 0: a series segment
        s = np.sin(kt) / root
    ls = np.zeros_like(x)

    tiny = np.flatnonzero(np.abs(x) < TAYLOR_CUT)
    hyp = np.flatnonzero(x >= TAYLOR_CUT)   # d > 0 and not tiny: x has the sign of d
    over = kt[hyp] > BIG_ARG
    big, hyp = hyp[over], hyp[~over]

    xt = x[tiny]
    c[tiny] = 1.0 + xt * (0.5 + xt * (1.0 / 24.0 + xt / 720.0))
    s[tiny] = t[tiny] * (
        1.0 + xt * (1.0 / 6.0 + xt * (1.0 / 120.0 + xt / 5040.0))
    )

    kh = kt[hyp]
    c[hyp] = np.cosh(kh)
    s[hyp] = np.sinh(kh) / root[hyp]

    kb = kt[big]
    e = np.exp(-2.0 * kb)
    c[big] = 0.5 * (1.0 + e)
    s[big] = 0.5 * (1.0 - e) / root[big]
    ls[big] = kb
    return c, s, ls


# integral of s(t)^2 over [0, len] = len^3 * sum_n _ISS_COEFF[n] * (d len^2)^n
_ISS_COEFF = np.asarray([
    sum(
        1.0 / (math.factorial(2 * k + 1) * math.factorial(2 * (n - k) + 1))
        for k in range(n + 1)
    ) / (2 * n + 3)
    for n in range(10)
])


def sq_integrals(d: np.ndarray, t: np.ndarray, basis=None):
    """Integrals over [0, t] of c^2, c*s, s^2 for the basis of y'' = d*y.

    Returned as (Icc, Ics, Iss, log_scale): true integrals are the returned
    values times exp(2 * log_scale).  Identities used:
      (s c)' = c^2 + d s^2,   c^2 - d s^2 = 1
    give Icc = (t + s c)/2 and Iss = (s c - t)/(2 d), taken on the whole
    arrays; Iss is then overwritten by a series in d t^2 where |d t^2| <
    1e-3, where cancellation would bite.  basis is cs_arrays(d, t) where
    the caller has it (take_swept_basis), else None.
    """
    d = np.asarray(d, dtype=float)
    t = np.asarray(t, dtype=float)
    c, s, ls = cs_arrays(d, t) if basis is None else basis
    x = d * t * t
    te = t * np.exp(-2.0 * ls)  # t scaled like c*s (exp(-0.0) = 1 leaves t)
    sc = s * c
    icc = 0.5 * (te + sc)
    ics = 0.5 * s * s
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0: a series segment
        # halved before the division, so that 2 d cannot overflow
        iss = 0.5 * (sc - te) / d
    series = np.flatnonzero(np.abs(x) < 1e-3)
    xs = x[series]
    acc = np.zeros_like(xs)
    for ck in _ISS_COEFF[::-1]:
        acc = acc * xs + ck
    iss[series] = (t[series] ** 3) * acc
    return icc, ics, iss, ls


def seg_sq(y0, dy0, icc, ics, iss):
    """Integral of y**2 over a segment that starts at state (y0, dy0),
    given the basis integrals of sq_integrals (same scale convention)."""
    return y0 * y0 * icc + 2.0 * y0 * dy0 * ics + dy0 * dy0 * iss


# ---------------------------------------------------------------------------
# phase and propagation: entry points


def propagate(lens, qs, masses, lam: float):
    """March (y, y') across all segments with per-boundary renormalization.

    Takes and dispatches a mesh as phase does; a short one is stepped here
    with phase's step formulas, renormalized before its atom jump with the
    norm kept in the log-scale.  Returns (y_b, dy_arr, dy_dep, logscale):
    boundary arrays of length nseg + 1.  True values at boundary j are
    exp(logscale[j]) times the stored ones, and (y_b[j], dy_arr[j]) has
    unit length; dy_arr is the arriving derivative (left limit), dy_dep
    the departing one (after an atom jump, if any).
    """
    if len(lens) >= SCAN_MIN_SEGMENTS:
        return _propagate_scan(lens, qs, masses, lam)
    if isinstance(lens, np.ndarray):
        lens, qs, masses = lens.tolist(), qs.tolist(), masses.tolist()
    sqrt, hypot, log = math.sqrt, math.hypot, math.log
    cos, sin, cosh, sinh = math.cos, math.sin, math.cosh, math.sinh
    y = 0.0
    dy = 1.0
    ls = 0.0
    y_b, dy_arr, dy_dep, logsc = [y], [dy], [dy], [ls]
    for t, qv, m in zip(lens, qs, masses):
        d = qv - lam
        x = d * t * t
        if d < -TAYLOR_CUT and x <= -TAYLOR_CUT:
            om = sqrt(-d)
            ot = om * t
            c = cos(ot)
            s = sin(ot) / om
        elif x >= TAYLOR_CUT and (kt := (k := sqrt(d)) * t) <= BIG_ARG:
            c = cosh(kt)
            s = sinh(kt) / k
        else:
            c, s, sc = cs_scalar(d, t)
            ls += sc
        y1 = c * y + s * dy
        dy1 = d * s * y + c * dy
        r = hypot(y1, dy1)
        if r != 0.0:
            y1 /= r
            dy1 /= r
            ls += log(r)
        y_b.append(y1)
        dy_arr.append(dy1)
        if m != 0.0:
            dy1 = dy1 + m * y1
        dy_dep.append(dy1)
        logsc.append(ls)
        y, dy = y1, dy1
    return np.array(y_b), np.array(dy_arr), np.array(dy_dep), np.array(logsc)


def phase(lens, qs, masses, lam: float) -> float:
    """Continuously unwound Pruefer angle theta(1; lam) for y(0)=0, y'(0)=1.

    A mesh of SCAN_MIN_SEGMENTS segments or more, as arrays, goes to the
    scan.  A shorter one, as build_segments gives it (tuples of floats) or
    as arrays, is swept here one segment at a time, renormalizing the
    state after each.  On an oscillatory segment the rescaled angle
    atan2(omega y, y') advances by omega t; on any other segment (the
    4-term series below TAYLOR_CUT, cosh/sinh, or the exp-scaled pair past
    BIG_ARG, whose log-scale the renormalization drops) the increment is
    the change of the angle taken in [0, pi), plus pi for a sign change of
    y.  An atom turns the angle at fixed y, from the atan2(y, y') its
    segment has already computed.  The two hot branches, oscillatory and
    cosh/sinh, are inlined with the math functions bound locally, as in
    propagate's loop: the gamma = 1 atom meshes have 2-4 segments, so the
    per-call cost is most of a sweep.  The three rare ones take cs_scalar.
    """
    if len(lens) >= SCAN_MIN_SEGMENTS:
        return _phase_scan(lens, qs, masses, lam)
    if isinstance(lens, np.ndarray):
        lens, qs, masses = lens.tolist(), qs.tolist(), masses.tolist()
    atan2, sqrt, hypot = math.atan2, math.sqrt, math.hypot
    cos, sin, cosh, sinh = math.cos, math.sin, math.cosh, math.sinh
    pi = _PI
    y = 0.0
    dy = 1.0
    theta = 0.0
    a1 = 0.0   # atan2(y, dy) of the state before its atom jump, when y != 0
    for t, qv, m in zip(lens, qs, masses):
        d = qv - lam
        x = d * t * t
        if d < -TAYLOR_CUT and x <= -TAYLOR_CUT:
            om = sqrt(-d)
            ot = om * t
            c = cos(ot)
            s = sin(ot) / om
            y1 = c * y + s * dy
            dy1 = d * s * y + c * dy
            a1 = atan2(y1, dy1)
            # at y = 0 both start angles are equal, so their difference is 0
            delta0 = 0.0 if y == 0.0 else atan2(om * y, dy) - atan2(y, dy)
            theta += delta0 + ot - (atan2(om * y1, dy1) - a1)
        else:
            if x >= TAYLOR_CUT and (kt := (k := sqrt(d)) * t) <= BIG_ARG:
                c = cosh(kt)
                s = sinh(kt) / k
            else:
                c, s, _ = cs_scalar(d, t)
            y1 = c * y + s * dy
            dy1 = d * s * y + c * dy
            inc = 0.0
            if y1 != 0.0:
                a1 = atan2(y1, dy1)
                inc = a1 + pi if a1 < 0.0 else a1
            if y != 0.0:
                # at most one zero, counted from the sign change of y
                if y1 == 0.0 or (y > 0.0) != (y1 > 0.0):
                    inc = pi + inc
                a0 = atan2(y, dy)
                inc -= a0 + pi if a0 < 0.0 else a0
            theta += inc
        y, dy = y1, dy1
        if m != 0.0 and y != 0.0:
            dy += m * y
            a = atan2(y, dy)
            theta += (a + pi if a < 0.0 else a) - (a1 + pi if a1 < 0.0 else a1)
        r = hypot(y, dy)
        if r != 0.0:
            y /= r
            dy /= r
    return theta


# ---------------------------------------------------------------------------
# long meshes: one prefix scan of the transfer matrices


def _scan(lens, qs, masses, lam: float):
    """States (y, y') arriving at every boundary, before its atom jump,
    for y(0) = 0, y'(0) = 1, by a work-efficient prefix product.

    Element k is T_k [[1, 0], [m, 1]]: the jump of the atom at the start
    of segment k, then the segment.  Pairs of elements multiply level by
    level down to at most _SCAN_TOP blocks; one short loop gives the state
    at each block's start and after the last, and each level down gives
    the states at its right halves from its left halves.  Every product
    and state is rescaled by a power of two (exact), counted in an integer
    exponent.  A level with an odd count pairs its last block with the
    block a padding to a power of two would put there (I, and 0.5 I with
    exponent 1 above the first level), so every bit is the padded scan's.

    Returns (y, dy, expo, ls, c, s): boundary arrays y, dy and expo of
    length nseg + 1 whose true values are (y, dy) * 2**expo * exp(sum of
    ls before it), and the basis values (c, s, ls) = cs_arrays(qs - lam,
    lens) the scan was built from.
    """
    k = len(lens)
    d = qs - lam
    c, s, ls = cs_arrays(d, lens)
    m = np.concatenate(([0.0], masses[:-1]))
    blk = np.empty((2, 2, k))
    blk[0, 0] = c + s * m
    blk[0, 1] = s
    blk[1, 0] = d * s + c * m
    blk[1, 1] = c
    expo = np.zeros(k, dtype=np.int64)
    levels = []
    pad, pad_e = _EYE, 0
    while k > _SCAN_TOP:
        levels.append((k, blk, expo))
        if k % 2:
            blk, expo = np.concatenate((blk, pad), axis=2), np.append(expo, pad_e)
        left, right = blk[:, :, 0::2], blk[:, :, 1::2]
        prod = (right[:, :, None, :] * left[None, :, :, :]).sum(axis=1)
        _, e = np.frexp(np.abs(prod).max(axis=(0, 1)))
        blk = np.ldexp(prod, -e)
        expo = expo[0::2] + expo[1::2] + e
        k, pad, pad_e = len(e), 0.5 * _EYE, 1
    y, dy, x = 0.0, 1.0, 0
    top = [[y], [dy], [x]]
    for (p00, p01, p10, p11), e in zip(blk.reshape(4, -1).T.tolist(), expo.tolist()):
        y, dy = p00 * y + p01 * dy, p10 * y + p11 * dy
        _, j = math.frexp(max(abs(y), abs(dy)))
        y, dy, x = math.ldexp(y, -j), math.ldexp(dy, -j), x + e + j
        top[0].append(y)
        top[1].append(dy)
        top[2].append(x)
    state = np.array(top[:2])
    sx = np.array(top[2], dtype=np.int64)
    for k, blk, expo in reversed(levels):
        v = (blk[:, :, 0::2] * state[None, :, :-1]).sum(axis=1)
        _, j = np.frexp(np.abs(v).max(axis=0))
        nxt = np.empty((2, k + 1))
        nxt[:, 0::2] = state[:, : k // 2 + 1]
        nxt[:, 1::2] = np.ldexp(v, -j)
        nx = np.empty(k + 1, dtype=np.int64)
        nx[0::2] = sx[: k // 2 + 1]
        nx[1::2] = sx[:-1] + expo[0::2] + j
        state, sx = nxt, nx
    return state[0], state[1], sx, ls, c, s


# the scans kept by the meshes told to keep them (keep_scans):
# id(lens) -> (qs, masses, weakref to lens, [(lam, scan), ...])
_SWEPT: dict = {}


def _frozen(a) -> bool:
    """Whether a is a read-only array that owns its data, so that nothing
    can write to it."""
    return not a.flags.writeable and a.flags.owndata


def keep_scans(lens, qs, masses) -> None:
    """Have a long mesh keep the scans of the last two lam swept on it (the
    two a solve can end on), until take_swept_basis lets them go.

    Only a mesh of SCAN_MIN_SEGMENTS segments or more whose three arrays
    are read-only and own their data (build_segments' and run_mesh's)
    keeps scans; any other is scanned at every call.  The scans are keyed
    by the identity of the arrays and dropped with lens at the latest, so
    none outlives the mesh."""
    if len(lens) < SCAN_MIN_SEGMENTS or not (
            _frozen(lens) and _frozen(qs) and _frozen(masses)):
        return
    key = id(lens)
    memo = _SWEPT.get(key)
    if memo is None or memo[0] is not qs or memo[1] is not masses:
        drop = weakref.ref(lens, lambda _, pop=_SWEPT.pop: pop(key, None))
        _SWEPT[key] = (qs, masses, drop, [])


def _kept(lens, qs, masses):
    """The (lam, scan) pairs the mesh keeps, most recent last, or None."""
    memo = _SWEPT.get(id(lens))
    if memo is None or memo[0] is not qs or memo[1] is not masses:
        return None
    return memo[3]


def _kept_scan(runs, lam):
    """The scan at lam among the kept runs, or None."""
    for lam_k, scan in runs:
        # 0.0 and -0.0 are equal, but can give zeros of other signs in qs - lam
        if lam_k == lam and math.copysign(1.0, lam_k) == math.copysign(1.0, lam):
            return scan
    return None


def _swept(lens, qs, masses, lam):
    """_scan(lens, qs, masses, lam), read from the scans the mesh keeps
    (keep_scans) when one of them is at lam; a new scan is kept in place
    of the older one."""
    runs = _kept(lens, qs, masses)
    if runs is None:
        return _scan(lens, qs, masses, lam)
    scan = _kept_scan(runs, lam)
    if scan is None:
        scan = _scan(lens, qs, masses, lam)
        runs[:] = [*runs[-1:], (lam, scan)]
    return scan


def take_swept_basis(lens, qs, masses, lam):
    """cs_arrays(qs - lam, lens) from the scan at lam that the mesh keeps
    (keep_scans), or None; sq_integrals takes it.  The mesh then keeps no
    scan: a solve ends in one shooting, which needs none after this, and
    the memory goes before the shooting's next steps."""
    runs = _kept(lens, qs, masses)
    scan = None if runs is None else _kept_scan(runs, lam)
    if scan is None:
        return None
    del _SWEPT[id(lens)]
    return scan[4], scan[5], scan[3]


def _frac(a, y):
    """The angles a = atan2(y, dy) taken in [0, pi), and 0 where y = 0."""
    f = np.where(a < 0.0, a + _PI, a)
    f[y == 0.0] = 0.0
    return f


def _phase_scan(lens, qs, masses, lam: float) -> float:
    """phase's loop increments, segment by segment, from _scan's states.

    atan2(y, y') is taken once per node (and once more after each atom
    jump); the oscillatory increment is taken on the whole arrays, then
    the other segments are overwritten by the non-oscillatory rule, which
    reads those angles in [0, pi) at their ends only."""
    y, dy_arr = _swept(lens, qs, masses, lam)[:2]
    dy_dep = dy_arr.copy()
    dy_dep[1:] += masses * y[1:]
    d = qs - lam
    y0, dy0, y1, dy1 = y[:-1], dy_dep[:-1], y[1:], dy_arr[1:]
    jump = np.flatnonzero(masses) + 1
    a_arr = np.arctan2(y, dy_arr)
    a_dep = a_arr.copy()
    a_dep[jump] = np.arctan2(y[jump], dy_dep[jump])
    # oscillatory rule: the scaled angle atan2(om y, y') advances by om t
    om = np.sqrt(np.abs(d))
    inc = (np.arctan2(om * y0, dy0) - a_dep[:-1]) + om * lens - (
        np.arctan2(om * y1, dy1) - a_arr[1:]
    )
    # non-oscillatory rule: at most one zero, counted from the sign change
    no = np.flatnonzero((d >= -TAYLOR_CUT) | (d * lens * lens > -TAYLOR_CUT))
    ya, yb = y0[no], y1[no]
    z = (ya != 0.0) & ((yb == 0.0) | ((ya > 0.0) != (yb > 0.0)))
    inc[no] = z * _PI + _frac(a_arr[no + 1], yb) - _frac(a_dep[no], ya)
    # atom jumps turn the angle at fixed y
    yj = y[jump]
    return float(np.sum(inc) + np.sum(_frac(a_dep[jump], yj) - _frac(a_arr[jump], yj)))


def _propagate_scan(lens, qs, masses, lam: float):
    y, dy, expo, ls = _swept(lens, qs, masses, lam)[:4]
    r = np.hypot(y, dy)
    y_b = y / r
    dy_arr = dy / r
    dy_dep = dy_arr.copy()
    dy_dep[1:] += masses * y_b[1:]
    logsc = np.concatenate(([0.0], np.cumsum(ls))) + expo * _LN2 + np.log(r)
    return y_b, dy_arr, dy_dep, logsc
