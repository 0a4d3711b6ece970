"""Weights and measure-valued potentials on the unit interval.

A potential is stored as a piecewise-constant density on a uniform grid
plus finitely many point masses (atoms) strictly inside (0, 1).  Every
functional the rest of the package applies to a potential -- the weighted
constraint integral, the nondecreasing antiderivative, the compactness
seminorm, bin averaging, convex combination -- reduces to exact arithmetic
in this representation.  Weights are kept symbolic (constant / power /
tabulated piecewise-linear), and the problem reads them two ways only:
``w(x)`` evaluates r at a Python float or elementwise on an array, and
``w.cell_pow_integrals(edges, p)`` integrates r**p over each interval of
an edge array.  Those integrals have closed forms for constant and table
weights: a table weight builds its piece table once and integrates each
piece in one vectorized log1p/expm1 form over all cells, exact to
rounding.  For a power weight they are incomplete beta integrals,
computed here per interval (``_beta_cells``) to 1e-13 relative or better
on grids, so the package needs numpy alone at run time.  A weight refuses
non-finite parameters when it is built, and ``parse_weight`` raises
ParameterError on every malformed literal or table file.

All values here are immutable after construction.  A potential keeps
three caches, each a ``functools.cached_property``.  ``Potential.fused_mesh``
is built on first use in the form phase sweeps and immutable after.
``Potential.phase_memo`` holds the phase theta(1; lam) of every lam swept
on the potential, keyed by lam; a sweep depends on the fused mesh and lam
alone, so the value is the one a new sweep would give.
``Potential.seminorm_2`` is seminorm(q, 2), which the spectral bounds of
every index read.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from ._propagate import build_segments, node_mesh

__all__ = [
    "DomainError",
    "InvalidPotentialError",
    "ParameterError",
    "Weight",
    "ConstantWeight",
    "PowerWeight",
    "TableWeight",
    "Potential",
    "PrimitiveFn",
    "Bins",
    "constraint_value",
    "primitive",
    "seminorm",
    "bin_project",
    "convex_combination",
    "parse_weight",
    "potential_to_dict",
    "potential_from_dict",
]

COINCIDENT_TOL = 1e-12  # atom positions closer than this merge
MAX_COMMON_CELLS = 1 << 20  # largest common grid of two different grids


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class InvalidPotentialError(ValueError):
    """A potential violates the preconditions of the requested operation."""


class ParameterError(ValueError):
    """A scalar parameter violates its admissible range."""


# ---------------------------------------------------------------------------
# weights


class Weight:
    """Positive weight on (0, 1).  Subclasses fix the functional form."""

    def __call__(self, x):
        """r at a Python float, or elementwise on an array.  A constant
        weight returns its value, which broadcasts against an array."""
        raise NotImplementedError

    def cell_pow_integrals(self, edges: np.ndarray, p: float = 1.0) -> np.ndarray:
        """Integral of r(x)**p over each interval of a sorted edge array
        within [0, 1]: a closed form for constant and table weights,
        ``_beta_cells`` for a power weight.

        Constant and table weights take any real p.  A power weight takes
        p with alpha * p > -1 and beta * p > -1, where r**p is integrable
        on all of [0, 1], and raises ParameterError otherwise."""
        raise NotImplementedError

    def literal(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantWeight(Weight):
    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ParameterError("constant weight must be a positive finite real")

    def __call__(self, x):
        return self.value

    def cell_pow_integrals(self, edges, p=1.0):
        return self.value**p * np.diff(np.asarray(edges, dtype=float))

    def literal(self):
        return f"const:{self.value:.17g}"


# 10-point Gauss-Legendre rule on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
SERIES_BLOCK = 16  # incomplete-beta series terms summed per numpy pass


def _beta_series(s: float, t: float, x: np.ndarray) -> np.ndarray:
    """Incomplete beta integral B_x(s, t) at each 0 <= x <= 1/2.

    DLMF 8.17.8: B_x(s, t) = x**s (1-x)**t / s * sum over k of
    prod_{j<k} (s+t+j) / (s+1+j) * x**k.  Every term is positive and the
    ratio of successive terms tends to x <= 1/2, so the sum is accurate to
    rounding.  Terms are added in blocks until the last one is below 1e-17
    of the sum everywhere.
    """
    term = x**s * (1.0 - x) ** t / s
    total = term.copy()
    xs = x[:, None]
    k = np.arange(float(SERIES_BLOCK))
    while True:
        block = term[:, None] * np.cumprod((s + t + k) / (s + 1.0 + k) * xs, axis=1)
        total += block.sum(axis=1)
        term = block[:, -1]
        k += SERIES_BLOCK
        # written so that a NaN stops the loop
        if not np.any(term > 1e-17 * total):
            return total


def _beta_cells(s: float, t: float, edges: np.ndarray) -> np.ndarray:
    """Integral of u**(s-1) * (1-u)**(t-1) over each interval of a sorted
    edge array in [0, 1], for s, t > 0.

    An interval at least four widths away from both ends of [0, 1] takes
    the 10-point Gauss-Legendre rule: the nearest singularity lies at least
    nine half-widths from its centre, so the rule is exact to rounding.
    Its nodes u are measured from the left edge a and 1 - u from 1 - b, so
    neither loses digits next to 1.  Every other interval is a difference
    of incomplete beta integrals (``_beta_series``), each taken from the
    nearer end of [0, 1]: an interval that crosses 1/2 is split there, and
    the part above 1/2 is mirrored with (t, s).  No interval is a
    difference of two values close to B(s, t).  An interval that does not
    cross 1/2 starts within four widths of its end, so its difference
    cancels by at most 2**|t-1| / (1 - 0.8**s): a factor 5 on the end
    cells of a grid with s = t = 1.  Against mpmath, every interval of the
    tested grids with s, t <= 4.7 is within 1e-13 relative.
    """
    a, b = edges[:-1], edges[1:]
    h = b - a
    out = np.empty(len(h))
    far = (np.minimum(a, 1.0 - b) >= 4.0 * h) & (h > 0.0)
    half = 0.5 * h[far, None]
    u = a[far, None] + half * (1.0 + _GL_X)
    v = (1.0 - b[far, None]) + half * (1.0 - _GL_X)
    out[far] = half[:, 0] * ((u ** (s - 1.0) * v ** (t - 1.0)) @ _GL_W)
    near = ~far
    ends = np.concatenate((a[near], b[near]))
    lo = _beta_series(s, t, np.minimum(ends, 0.5))
    hi = _beta_series(t, s, 1.0 - np.maximum(ends, 0.5))
    m = len(ends) // 2
    out[near] = (lo[m:] - lo[:m]) + (hi[:m] - hi[m:])
    return out


@dataclass(frozen=True)
class PowerWeight(Weight):
    """r(x) = x**alpha * (1-x)**beta with alpha, beta >= 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ParameterError(
                "power weight exponents must be nonnegative finite reals")

    def __call__(self, x):
        return x**self.alpha * (1.0 - x) ** self.beta

    def cell_pow_integrals(self, edges, p=1.0):
        # r**p = x**(s-1) * (1-x)**(t-1), integrable on [0, 1] iff s, t > 0
        s, t = self.alpha * p + 1.0, self.beta * p + 1.0
        if not (s > 0.0 and t > 0.0):
            raise ParameterError(
                f"power weight integral of r**{p!r} diverges: needs "
                "alpha * p > -1 and beta * p > -1"
            )
        return _beta_cells(s, t, np.asarray(edges, dtype=float))

    def literal(self):
        return f"power:{self.alpha:.17g},{self.beta:.17g}"


@dataclass(frozen=True)
class TableWeight(Weight):
    """Piecewise-linear weight through (nodes, values), extended flat
    outside the tabulated range so r stays positive on all of (0, 1)."""

    nodes: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        xs = np.asarray(self.nodes, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 1:
            raise ParameterError("table weight needs matching nonempty x/r columns")
        if np.any(np.diff(xs) <= 0):
            raise ParameterError("table abscissae must be strictly increasing")
        if not np.all((xs > 0.0) & (xs < 1.0)):  # false for NaN
            raise ParameterError("table abscissae must lie strictly inside (0, 1)")
        if np.any(vs <= 0.0) or not np.all(np.isfinite(vs)):
            raise ParameterError("table values must be positive finite reals")
        object.__setattr__(self, "nodes", tuple(float(x) for x in xs))
        object.__setattr__(self, "values", tuple(float(v) for v in vs))
        # the piece table: breakpoints 0, nodes..., 1 and the values there,
        # flat on the two end pieces
        px = np.concatenate(([0.0], xs, [1.0]))
        pv = np.concatenate((vs[:1], vs, vs[-1:]))
        slopes = np.diff(pv) / np.diff(px)
        object.__setattr__(self, "_xs", px)
        object.__setattr__(self, "_vs", pv)
        object.__setattr__(self, "_table", tuple(zip(
            px[:-1].tolist(), px[1:].tolist(), pv[:-1].tolist(),
            pv[1:].tolist(), slopes.tolist())))

    def __call__(self, x):
        return np.interp(x, self._xs, self._vs)

    def cell_pow_integrals(self, edges, p=1.0):
        """On a piece from r(lo) = ra over a length ln with slope s, the
        integral of r**p is ra**p * ln * E(d), d = s * ln / ra, where
        E(d) = ((1 + d)**(p+1) - 1) / ((p+1) d) is taken as
        expm1((p+1) log1p(d)) / ((p+1) d), log1p(d) / d at p = -1 and 1
        at d = 0.  No term cancels, so each integral is exact to rounding,
        flat or steep.  ra is interpolated from the piece's lower end, a
        sum of nonnegative terms."""
        edges = np.asarray(edges, dtype=float)
        a, b = edges[:-1], edges[1:]
        q = p + 1.0
        out = np.zeros(len(a))
        # E is 0/0 where d = 0, and np.where puts 1 there
        with np.errstate(divide="ignore", invalid="ignore"):
            for x0, x1, v0, v1, s in self._table:
                lo = np.clip(a, x0, x1)
                ln = np.clip(b, x0, x1) - lo
                ra = v0 + s * (lo - x0) if s >= 0.0 else v1 - s * (x1 - lo)
                d = s * ln / ra
                lp = np.log1p(d)
                e = lp / d if q == 0.0 else np.expm1(q * lp) / (q * d)
                out += ra**p * ln * np.where(d == 0.0, 1.0, e)
        return out

    def literal(self):
        pairs = ";".join(
            f"{x:.17g},{v:.17g}" for x, v in zip(self.nodes, self.values)
        )
        return f"table-inline:{pairs}"


def parse_weight(text: str) -> Weight:
    """Parse a weight literal: const:<v>, power:<alpha>,<beta>, table:<path>,
    or table-inline:<x,r;x,r;...> (the round-trip form of table weights).
    A malformed literal or table file raises ParameterError."""
    kind, _, rest = text.partition(":")
    where = f"weight literal {text!r}"
    if kind == "const":
        return ConstantWeight(*_numbers(where, [rest], 1))
    if kind == "power":
        return PowerWeight(*_numbers(where, rest.split(","), 2))
    if kind == "table":
        return _read_table(Path(rest))
    if kind == "table-inline":
        return _table(where, [p.split(",") for p in rest.split(";") if p])
    raise ParameterError(f"unknown weight kind in literal {text!r}")


def _numbers(where: str, fields: list[str], count: int) -> list[float]:
    """The count fields as floats, or ParameterError naming where."""
    if len(fields) != count:
        raise ParameterError(f"bad {where}: expected {count} number(s), "
                             f"got {len(fields)}")
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise ParameterError(f"bad {where}: {exc}") from exc


def _table(where: str, rows: list[list[str]]) -> TableWeight:
    """Table weight through rows of two numbers each, x and r."""
    pairs = [_numbers(where, row, 2) for row in rows]
    return TableWeight(tuple(x for x, _ in pairs), tuple(v for _, v in pairs))


def _read_table(path: Path) -> TableWeight:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParameterError(f"table file {path} is not CSV text: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["x", "r"]:
        raise ParameterError(f"table file {path} must have header 'x,r'")
    return _table(f"table file {path}", [row for row in rows[1:] if row])


# ---------------------------------------------------------------------------
# potentials


def _cell_index(edges: np.ndarray, x):
    """Clipped index i of the right-open [edges[i], edges[i + 1]) holding x."""
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)


def _merge_atoms(atoms) -> tuple[tuple[float, float], ...]:
    """(position, mass) pairs as a Potential keeps its atoms: Python
    floats, ascending, with positions closer than ``COINCIDENT_TOL``
    merged by summing their masses.  A position outside (0, 1) or a mass
    that is not positive and finite raises InvalidPotentialError."""
    merged: list[tuple[float, float]] = []
    for pos, mass in sorted([(float(p), float(m)) for p, m in atoms]):
        if not (0.0 < pos < 1.0):
            raise InvalidPotentialError(f"atom position {pos} outside (0, 1)")
        if not (0.0 < mass < math.inf):
            raise InvalidPotentialError(f"atom mass {mass} must be positive")
        if merged and pos - merged[-1][0] < COINCIDENT_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + mass)
        else:
            merged.append((pos, mass))
    return tuple(merged)


@dataclass(frozen=True)
class Potential:
    """Nonnegative measure: piecewise-constant density + atoms.

    density[i] is the value on cell [i/n, (i+1)/n); atoms are (position,
    mass) with positions strictly inside (0, 1), pairwise distinct and
    ascending.  Atoms closer than ``COINCIDENT_TOL`` merge by summing mass.
    """

    grid_n: int
    density: np.ndarray
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.grid_n < 1:
            raise InvalidPotentialError("grid_n must be a positive integer")
        # a private copy: freezing the caller's own array would make it
        # read-only for the caller
        d = np.array(self.density, dtype=float)
        if d.shape != (self.grid_n,):
            raise InvalidPotentialError(
                f"density must have shape ({self.grid_n},), got {d.shape}"
            )
        # NaN propagates into min and max, so it is found before a negative
        # value
        lo, hi = float(d.min()), float(d.max())
        if not (-math.inf < lo and hi < math.inf):
            raise InvalidPotentialError("density values must be finite")
        if lo < 0.0:
            raise InvalidPotentialError("density values must be nonnegative")
        d.setflags(write=False)
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "atoms", _merge_atoms(self.atoms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, grid_n: int = 16) -> "Potential":
        return cls(grid_n, np.zeros(grid_n))

    @classmethod
    def constant(cls, value: float, grid_n: int = 16) -> "Potential":
        return cls(grid_n, np.full(grid_n, float(value)))

    @classmethod
    def from_atoms(
        cls, atoms: Sequence[tuple[float, float]], grid_n: int = 16
    ) -> "Potential":
        return cls(grid_n, np.zeros(grid_n), tuple(atoms))

    # -- geometry ----------------------------------------------------------

    def edges(self) -> np.ndarray:
        return np.arange(self.grid_n + 1) / self.grid_n

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.grid_n) + 0.5) / self.grid_n

    def density_at(self, x: float) -> float:
        """Density of the right-open cell holding x, as node_mesh places
        pieces; DomainError if x is not finite."""
        if not math.isfinite(x):
            raise DomainError(f"density evaluation point {x!r} is not finite")
        return float(self.density[_cell_index(self.edges(), x)])

    def scaled(self, t: float) -> "Potential":
        if t < 0:
            raise InvalidPotentialError("scaling factor must be nonnegative")
        atoms = tuple((p, m * t) for p, m in self.atoms) if t > 0 else ()
        return Potential(self.grid_n, self.density * t, atoms)

    @cached_property
    def fused_mesh(self) -> tuple:
        """build_segments of this potential, (xs, lens, qs, masses), built
        once in the form phase sweeps: every phase sweep and
        ShootingSolution of the same potential shares it."""
        return build_segments(self.grid_n, self.density, self.atoms)

    @cached_property
    def phase_memo(self) -> dict:
        """theta(1; lam) of every lam swept on this potential, keyed by
        lam: the solves of every index, and eigenfunction's check of
        their answers, sweep each lam once."""
        return {}

    @cached_property
    def seminorm_2(self) -> float:
        """seminorm(self, 2), computed once: the spectral bounds of every
        index read it."""
        return seminorm(self, 2)

    def total_mass(self) -> float:
        return float(np.sum(self.density) / self.grid_n) + sum(
            m for _, m in self.atoms
        )


def potential_to_dict(q: Potential) -> dict:
    return {
        "grid_n": q.grid_n,
        "density": [float(v) for v in q.density],
        "atoms": [{"pos": p, "mass": m} for p, m in q.atoms],
    }


def potential_from_dict(d: dict) -> Potential:
    atoms = tuple((a["pos"], a["mass"]) for a in d.get("atoms", ()))
    return Potential(int(d["grid_n"]), np.asarray(d["density"], dtype=float), atoms)


# ---------------------------------------------------------------------------
# the constraint functional


def constraint_value(w: Weight, gamma: float, q: Potential) -> float:
    """Weighted constraint integral of q**gamma; atoms enter only at gamma=1.

    For gamma > 1 a potential with atoms is rejected (the gamma-th power of
    a point mass is undefined).  At gamma = 1 atoms contribute mass times
    the weight value at their position.
    """
    if gamma < 1.0:
        raise ParameterError("gamma must be >= 1")
    if gamma > 1.0 and q.atoms:
        raise InvalidPotentialError("atoms are not admissible for gamma > 1")
    cell_r = w.cell_pow_integrals(q.edges())
    total = float(np.dot(cell_r, q.density**gamma))
    if gamma == 1.0:
        total += sum(m * w(p) for p, m in q.atoms)
    return total


# ---------------------------------------------------------------------------
# antiderivative


@dataclass(frozen=True)
class PrimitiveFn:
    """Nondecreasing antiderivative Q with Q(0) = 0, left-continuous.

    Piecewise linear between breakpoints (cell edges and atom positions);
    the slope on a piece is the density there and the upward jump at an
    atom equals its mass.
    """

    xs: np.ndarray           # breakpoints, xs[0] = 0, xs[-1] = 1
    left: np.ndarray         # Q(x-) at each breakpoint
    jumps: np.ndarray        # jump at each breakpoint (0 where no atom)
    slopes: np.ndarray       # density on each piece (len(xs) - 1)

    @property
    def right(self) -> np.ndarray:
        return self.left + self.jumps

    def __call__(self, x: float) -> float:
        """Left-continuous evaluation; DomainError if x is NaN."""
        if math.isnan(x):
            raise DomainError(f"primitive evaluation point {x!r} is NaN")
        if x <= self.xs[0]:
            return float(self.left[0])
        if x >= self.xs[-1]:
            return float(self.left[-1])
        j = int(np.searchsorted(self.xs, x, side="left")) - 1
        if self.xs[j + 1] == x:
            return float(self.left[j + 1])
        return float(self.left[j] + self.jumps[j] + self.slopes[j] * (x - self.xs[j]))

    def integrals(self, a: float, b: float) -> tuple[float, float]:
        """Exact (integral of Q, integral of Q**2) over [a, b]."""
        if not (0.0 <= a < b <= 1.0):
            raise DomainError("integration interval must satisfy 0 <= a < b <= 1")
        xs = self.xs
        lo = np.maximum(xs[:-1], a)
        hi = np.minimum(xs[1:], b)
        keep = hi > lo
        lo, hi, x0 = lo[keep], hi[keep], xs[:-1][keep]
        right = self.right[:-1][keep]
        slopes = self.slopes[keep]
        va = right + slopes * (lo - x0)
        vb = right + slopes * (hi - x0)
        ln = hi - lo
        return (_ordered_sum(0.5 * (va + vb) * ln),
                _ordered_sum(ln * (va * va + va * vb + vb * vb) / 3.0))


def _ordered_sum(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added in order like a loop.  np.sum
    adds pairwise, which moves seminorm, hence every solve bracket, in the
    last bits."""
    return 0.0 + float(np.cumsum(terms)[-1]) if terms.size else 0.0


def primitive(q: Potential) -> PrimitiveFn:
    xs, lens, slopes, masses = node_mesh(q.grid_n, q.density, q.atoms)
    jumps = np.concatenate(([0.0], masses))
    # left[j + 1] = left[j] + jumps[j] + slopes[j] * lens[j], added in that
    # order: one sequential cumsum over the interleaved terms
    terms = np.empty(2 * len(lens))
    terms[0::2] = jumps[:-1]
    terms[1::2] = slopes * lens
    left = np.concatenate(([0.0], np.cumsum(terms)[1::2]))
    return PrimitiveFn(xs=xs, left=left, jumps=jumps, slopes=slopes)


# ---------------------------------------------------------------------------
# compactness seminorm


def seminorm(q: Potential, ell: int) -> float:
    """Dual seminorm of q against test functions supported in
    [2**-ell, 1 - 2**-ell] with unit derivative norm.

    Equals the mean-square deviation of the antiderivative Q from its mean
    over that interval: the dual supremum is attained by y' proportional to
    -(Q - mean), zero outside.  The discretized dual program is kept as a
    test oracle for this reduction.
    """
    if ell < 2:
        raise ParameterError("seminorm level ell must be an integer >= 2")
    a = 2.0 ** (-ell)
    b = 1.0 - a
    p = primitive(q)
    i1, i2 = p.integrals(a, b)
    length = b - a
    var = i2 - i1 * i1 / length
    return math.sqrt(max(var, 0.0))


# ---------------------------------------------------------------------------
# bins and projection


@dataclass(frozen=True)
class Bins:
    """Partition of a closed subinterval of [0, 1] into nonempty bins."""

    boundaries: np.ndarray

    def __post_init__(self):
        bs = np.array(self.boundaries, dtype=float)  # private, frozen below
        if bs.ndim != 1 or len(bs) < 2:
            raise ParameterError("bins need at least two boundaries")
        if np.any(np.diff(bs) <= 0):
            raise ParameterError("bin boundaries must be strictly increasing")
        if bs[0] < 0.0 or bs[-1] > 1.0:
            raise ParameterError("bin boundaries must lie within [0, 1]")
        bs.setflags(write=False)
        object.__setattr__(self, "boundaries", bs)

    @property
    def count(self) -> int:
        return len(self.boundaries) - 1

    @classmethod
    def uniform(cls, ell: int, count: int) -> "Bins":
        if ell < 2:
            raise ParameterError("bin level must be >= 2")
        if count < 1:
            raise ParameterError("bin count must be positive")
        a = 2.0 ** (-ell)
        return cls(np.linspace(a, 1.0 - a, count + 1))


def bin_project(q: Potential, w: Weight, gamma: float, bins: Bins) -> Potential:
    """Weighted bin averaging of q that preserves per-bin moments against
    r**(1/gamma) and never increases the constraint integral.

    Density outside the bin range is dropped.  The ideal projection is
    resampled to the uniform grid so that the r**(1/gamma)-moment of every
    grid cell is preserved exactly; when bins align with cell edges the
    per-bin moments are therefore exact for any weight, and for constant
    weights the constraint contraction is exact as well.
    """
    if gamma < 1.0:
        raise ParameterError("gamma must be >= 1")
    if q.atoms:
        raise InvalidPotentialError("bin projection is defined for atom-free q")
    edges = q.edges()
    bs = bins.boundaries
    lo_all, hi_all = float(bs[0]), float(bs[-1])

    # pieces of the common refinement of cells and bins
    cuts = np.union1d(bs, edges[(edges > lo_all) & (edges < hi_all)])
    cell = _cell_index(edges, cuts[:-1])
    k = _cell_index(bs, cuts[:-1])
    lens = cuts[1:] - cuts[:-1]
    dens = q.density[cell]

    dropped = q.total_mass() - float(np.sum(dens * lens))
    if dropped > 1e-9:
        warnings.warn(
            f"bin projection drops {dropped:.3g} of potential mass outside "
            f"[{lo_all:g}, {hi_all:g}]",
            stacklevel=2,
        )

    # bin coefficients: moment of q against r**(1/gamma), divided by length
    moments = w.cell_pow_integrals(cuts, 1.0 / gamma)
    coeff = np.bincount(k, weights=dens * moments, minlength=bins.count) / np.diff(bs)

    # resample coefficient * r**(-1/gamma) to the grid, cell moments exact
    out = np.bincount(cell, weights=coeff[k] * lens, minlength=q.grid_n)
    cell_moments = np.bincount(cell, weights=moments, minlength=q.grid_n)
    np.divide(out, cell_moments, out=out, where=out != 0.0)
    return Potential(q.grid_n, np.maximum(out, 0.0))


# ---------------------------------------------------------------------------
# convex combination


def _common_densities(q1: Potential, q2: Potential) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, d1, d2): the densities of q1 and q2 on their common grid of
    n = lcm(q1.grid_n, q2.grid_n) cells, each cell value repeated.

    Raises InvalidPotentialError, before any array is built, when the grids
    differ and n exceeds MAX_COMMON_CELLS."""
    n = math.lcm(q1.grid_n, q2.grid_n)
    if q1.grid_n != q2.grid_n and n > MAX_COMMON_CELLS:
        raise InvalidPotentialError(
            f"grids of {q1.grid_n} and {q2.grid_n} cells are incommensurable "
            f"(common grid {n} > {MAX_COMMON_CELLS}); resample one potential first"
        )
    d1, d2 = (q.density if q.grid_n == n else np.repeat(q.density, n // q.grid_n)
              for q in (q1, q2))
    return n, d1, d2


def convex_combination(q1: Potential, q2: Potential, t: float) -> Potential:
    """(1-t) * q1 + t * q2; densities on the common grid, atoms merged."""
    if not (0.0 <= t <= 1.0):
        raise ParameterError("combination parameter t must lie in [0, 1]")
    n, d1, d2 = _common_densities(q1, q2)
    d = (1.0 - t) * d1 + t * d2
    atoms = []
    if t < 1.0:
        atoms += [(p, (1.0 - t) * m) for p, m in q1.atoms]
    if t > 0.0:
        atoms += [(p, t * m) for p, m in q2.atoms]
    return Potential(n, d, tuple(atoms))
