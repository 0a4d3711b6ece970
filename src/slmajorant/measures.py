"""Weights and measure-valued potentials on the unit interval.

A potential is stored as a piecewise-constant density on a uniform grid
plus finitely many point masses (atoms) strictly inside (0, 1).  Every
functional the rest of the package applies to a potential -- the weighted
constraint integral, the nondecreasing antiderivative, the compactness
seminorm, bin averaging, convex combination -- reduces to exact arithmetic
in this representation.  Weights are kept symbolic (constant / power /
tabulated piecewise-linear), so integrals of weight powers have closed
forms as well; generic adaptive quadrature is used only for power weights
with exponents outside the incomplete-beta range.

All values here are immutable after construction and safe to share between
threads; nothing caches internally.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaln

from ._propagate import node_mesh

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
    "weight_eval",
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

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def pow_integral(self, p: float, a: float, b: float) -> float:
        """Exact integral of r(x)**p over [a, b] within [0, 1]."""
        raise NotImplementedError

    def literal(self) -> str:
        raise NotImplementedError

    def cell_pow_integrals(self, edges: np.ndarray, p: float = 1.0) -> np.ndarray:
        """Integral of r**p over each interval of a sorted edge array."""
        return np.array(
            [self.pow_integral(p, a, b) for a, b in zip(edges[:-1], edges[1:])]
        )

    def values_at(self, xs) -> np.ndarray:
        """Vectorized evaluation at interior points."""
        xs = np.asarray(xs, dtype=float)
        return np.array([self(float(x)) for x in np.atleast_1d(xs)])


@dataclass(frozen=True)
class ConstantWeight(Weight):
    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ParameterError("constant weight must be a positive finite real")

    def __call__(self, x):
        return self.value

    def pow_integral(self, p, a, b):
        return self.value**p * (b - a)

    def cell_pow_integrals(self, edges, p=1.0):
        return self.value**p * np.diff(np.asarray(edges, dtype=float))

    def values_at(self, xs):
        return np.full_like(np.atleast_1d(np.asarray(xs, dtype=float)), self.value)

    def literal(self):
        return f"const:{self.value:.17g}"


@dataclass(frozen=True)
class PowerWeight(Weight):
    """r(x) = x**alpha * (1-x)**beta with alpha, beta >= 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("power weight exponents must be nonnegative")

    def __call__(self, x):
        return x**self.alpha * (1.0 - x) ** self.beta

    def pow_integral(self, p, a, b):
        aa, bb = self.alpha * p, self.beta * p
        if aa > -1.0 and bb > -1.0:
            # incomplete-beta closed form, exact up to scipy precision
            s, t = aa + 1.0, bb + 1.0
            scale = math.exp(betaln(s, t))
            return scale * float(betainc(s, t, b) - betainc(s, t, a))
        if not (0.0 < a and b < 1.0):
            raise DomainError(
                "integral of this weight power diverges at an interval endpoint"
            )
        val, _ = integrate.quad(
            lambda x: x**aa * (1.0 - x) ** bb, a, b, epsabs=1e-14, epsrel=1e-12
        )
        return val

    def cell_pow_integrals(self, edges, p=1.0):
        aa, bb = self.alpha * p, self.beta * p
        edges = np.asarray(edges, dtype=float)
        if aa > -1.0 and bb > -1.0:
            s, t = aa + 1.0, bb + 1.0
            scale = math.exp(betaln(s, t))
            acc = scale * betainc(s, t, edges)
            return np.diff(acc)
        return super().cell_pow_integrals(edges, p)

    def values_at(self, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return xs**self.alpha * (1.0 - xs) ** self.beta

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
        if xs[0] <= 0.0 or xs[-1] >= 1.0:
            raise ParameterError("table abscissae must lie strictly inside (0, 1)")
        if np.any(vs <= 0.0) or not np.all(np.isfinite(vs)):
            raise ParameterError("table values must be positive finite reals")
        object.__setattr__(self, "nodes", tuple(float(x) for x in xs))
        object.__setattr__(self, "values", tuple(float(v) for v in vs))

    def _pieces(self):
        # breakpoints 0, nodes..., 1 with (const|linear) value description
        xs = (0.0,) + self.nodes + (1.0,)
        vs = (self.values[0],) + self.values + (self.values[-1],)
        return xs, vs

    def __call__(self, x):
        xs, vs = self._pieces()
        return float(np.interp(x, xs, vs))

    def values_at(self, xs):
        pxs, pvs = self._pieces()
        return np.interp(np.atleast_1d(np.asarray(xs, dtype=float)), pxs, pvs)

    def pow_integral(self, p, a, b):
        if b <= a:
            return 0.0
        xs, vs = self._pieces()
        total = 0.0
        for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
            lo, hi = max(a, x0), min(b, x1)
            if hi <= lo:
                continue
            slope = (v1 - v0) / (x1 - x0)
            ra = v0 + slope * (lo - x0)
            rb = v0 + slope * (hi - x0)
            if slope == 0.0 or ra == rb:
                total += ra**p * (hi - lo)
            elif p == -1.0:
                total += (math.log(rb) - math.log(ra)) / slope
            else:
                total += (rb ** (p + 1.0) - ra ** (p + 1.0)) / (slope * (p + 1.0))
        return total

    def literal(self):
        pairs = ";".join(
            f"{x:.17g},{v:.17g}" for x, v in zip(self.nodes, self.values)
        )
        return f"table-inline:{pairs}"


def weight_eval(w: Weight, x: float) -> float:
    """Evaluate the weight at x; x must lie strictly inside (0, 1)."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"weight evaluation point {x!r} outside (0, 1)")
    return float(w(x))


def parse_weight(text: str) -> Weight:
    """Parse a weight literal: const:<v>, power:<alpha>,<beta>, table:<path>,
    or table-inline:<x,r;x,r;...> (the round-trip form of table weights)."""
    kind, _, rest = text.partition(":")
    if kind == "const":
        try:
            return ConstantWeight(float(rest))
        except ValueError as exc:
            raise ParameterError(f"bad constant weight literal {text!r}") from exc
    if kind == "power":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ParameterError(f"bad power weight literal {text!r}")
        return PowerWeight(float(parts[0]), float(parts[1]))
    if kind == "table":
        return _read_table(Path(rest))
    if kind == "table-inline":
        pairs = [p.split(",") for p in rest.split(";") if p]
        xs = tuple(float(p[0]) for p in pairs)
        vs = tuple(float(p[1]) for p in pairs)
        return TableWeight(xs, vs)
    raise ParameterError(f"unknown weight kind in literal {text!r}")


def _read_table(path: Path) -> TableWeight:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != ["x", "r"]:
        raise ParameterError(f"table file {path} must have header 'x,r'")
    xs, vs = [], []
    for row in rows[1:]:
        if not row:
            continue
        xs.append(float(row[0]))
        vs.append(float(row[1]))
    return TableWeight(tuple(xs), tuple(vs))


# ---------------------------------------------------------------------------
# potentials


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
        d = np.ascontiguousarray(np.asarray(self.density, dtype=float))
        if d.shape != (self.grid_n,):
            raise InvalidPotentialError(
                f"density must have shape ({self.grid_n},), got {d.shape}"
            )
        if not np.all(np.isfinite(d)):
            raise InvalidPotentialError("density values must be finite")
        if np.any(d < 0.0):
            raise InvalidPotentialError("density values must be nonnegative")
        merged: list[list[float]] = []
        for pos, mass in sorted((float(p), float(m)) for p, m in self.atoms):
            if not (0.0 < pos < 1.0):
                raise InvalidPotentialError(f"atom position {pos} outside (0, 1)")
            if not (mass > 0.0 and math.isfinite(mass)):
                raise InvalidPotentialError(f"atom mass {mass} must be positive")
            if merged and pos - merged[-1][0] < COINCIDENT_TOL:
                merged[-1][1] += mass
            else:
                merged.append([pos, mass])
        d.setflags(write=False)
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "atoms", tuple((p, m) for p, m in merged))

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

    @classmethod
    def from_callable(cls, f, grid_n: int) -> "Potential":
        mids = (np.arange(grid_n) + 0.5) / grid_n
        return cls(grid_n, np.asarray([f(x) for x in mids], dtype=float))

    # -- geometry ----------------------------------------------------------

    @property
    def h(self) -> float:
        return 1.0 / self.grid_n

    def edges(self) -> np.ndarray:
        return np.arange(self.grid_n + 1) / self.grid_n

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.grid_n) + 0.5) / self.grid_n

    def density_at(self, x: float) -> float:
        """Density of the right-open cell containing x, placed as node_mesh
        places pieces: by comparing x with the node values i/n."""
        n = self.grid_n
        i = int(x * n)
        if x < i / n:
            i -= 1
        elif x >= (i + 1) / n:
            i += 1
        return float(self.density[min(max(i, 0), n - 1)])

    def scaled(self, t: float) -> "Potential":
        if t < 0:
            raise InvalidPotentialError("scaling factor must be nonnegative")
        atoms = tuple((p, m * t) for p, m in self.atoms) if t > 0 else ()
        return Potential(self.grid_n, self.density * t, atoms)

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
        """Left-continuous evaluation."""
        if x <= self.xs[0]:
            return float(self.left[0])
        if x >= self.xs[-1]:
            return float(self.left[-1])
        j = int(np.searchsorted(self.xs, x, side="left")) - 1
        if self.xs[j + 1] == x:
            return float(self.left[j + 1])
        return float(self.left[j] + self.jumps[j] + self.slopes[j] * (x - self.xs[j]))

    def value_right(self, x: float) -> float:
        """Right-continuous evaluation Q(x+)."""
        j = int(np.searchsorted(self.xs, x, side="right")) - 1
        j = min(max(j, 0), len(self.xs) - 1)
        if j == len(self.xs) - 1:
            return float(self.left[-1])
        return float(self.left[j] + self.jumps[j] + self.slopes[j] * (x - self.xs[j]))

    def integrals(self, a: float, b: float) -> tuple[float, float]:
        """Exact (integral of Q, integral of Q**2) over [a, b]."""
        if not (0.0 <= a < b <= 1.0):
            raise DomainError("integration interval must satisfy 0 <= a < b <= 1")
        i1 = 0.0
        i2 = 0.0
        right = self.right
        for j in range(len(self.xs) - 1):
            lo = max(a, float(self.xs[j]))
            hi = min(b, float(self.xs[j + 1]))
            if hi <= lo:
                continue
            va = right[j] + self.slopes[j] * (lo - self.xs[j])
            vb = right[j] + self.slopes[j] * (hi - self.xs[j])
            ln = hi - lo
            i1 += 0.5 * (va + vb) * ln
            i2 += ln * (va * va + va * vb + vb * vb) / 3.0
        return i1, i2

    def pair(self, y_xs: np.ndarray, y_vals: np.ndarray) -> float:
        """Duality pairing -integral of Q * y' for piecewise-linear y."""
        y_xs = np.asarray(y_xs, dtype=float)
        y_vals = np.asarray(y_vals, dtype=float)
        total = 0.0
        for k in range(len(y_xs) - 1):
            x0, x1 = float(y_xs[k]), float(y_xs[k + 1])
            if x1 <= x0:
                continue
            slope = (y_vals[k + 1] - y_vals[k]) / (x1 - x0)
            if slope == 0.0:
                continue
            total -= slope * self.integrals(x0, x1)[0]
        return total


def primitive(q: Potential) -> PrimitiveFn:
    xs, lens, slopes, masses = node_mesh(q.grid_n, q.density, q.atoms)
    jumps = np.concatenate(([0.0], masses))
    left = np.zeros(len(xs))
    for j in range(len(xs) - 1):
        left[j + 1] = left[j] + jumps[j] + slopes[j] * lens[j]
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
    level: int | None = None

    def __post_init__(self):
        bs = np.ascontiguousarray(np.asarray(self.boundaries, dtype=float))
        if bs.ndim != 1 or len(bs) < 2:
            raise ParameterError("bins need at least two boundaries")
        if np.any(np.diff(bs) <= 0):
            raise ParameterError("bin boundaries must be strictly increasing")
        if bs[0] < 0.0 or bs[-1] > 1.0:
            raise ParameterError("bin boundaries must lie within [0, 1]")
        if self.level is not None and self.level < 2:
            raise ParameterError("bin level must be >= 2")
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
        return cls(np.linspace(a, 1.0 - a, count + 1), level=ell)

    def check_max_length(self, delta: float) -> None:
        """Validate that every bin is shorter than delta**2."""
        if np.max(np.diff(self.boundaries)) > delta * delta:
            raise ParameterError("a bin exceeds the maximum length delta**2")


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
    cell = np.searchsorted(edges, cuts[:-1], side="right") - 1
    k = np.searchsorted(bs, cuts[:-1], side="right") - 1
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


def _resample_density(d: np.ndarray, n_from: int, n_to: int) -> np.ndarray:
    if n_to == n_from:
        return d
    if n_to % n_from == 0:
        return np.repeat(d, n_to // n_from)
    raise InvalidPotentialError(
        f"cannot resample density exactly from {n_from} to {n_to} cells"
    )


def convex_combination(q1: Potential, q2: Potential, t: float) -> Potential:
    """(1-t) * q1 + t * q2; densities on the common grid, atoms merged."""
    if not (0.0 <= t <= 1.0):
        raise ParameterError("combination parameter t must lie in [0, 1]")
    n = q1.grid_n
    if q2.grid_n != n:
        n = math.lcm(q1.grid_n, q2.grid_n)
        if n > (1 << 20):
            raise InvalidPotentialError(
                "grids are incommensurable; resample one potential first"
            )
    d = (1.0 - t) * _resample_density(q1.density, q1.grid_n, n) + t * _resample_density(
        q2.density, q2.grid_n, n
    )
    atoms = []
    if t < 1.0:
        atoms += [(p, (1.0 - t) * m) for p, m in q1.atoms]
    if t > 0.0:
        atoms += [(p, t * m) for p, m in q2.atoms]
    return Potential(n, d, tuple(atoms))
