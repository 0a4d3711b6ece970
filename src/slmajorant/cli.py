"""Batch front end: one JSON config in, machine-readable results out.

A run is described by a single JSON document (see README for the schema),
which names the mode; the only flags are --config and --output-dir.
Outputs are deterministic: floats are printed with 17 significant digits
(enough to round-trip IEEE doubles exactly), keys are sorted, and
identical configs produce byte-identical files.

Each number is formatted once.  A column that appears in two files (an
eigenfunction's x, y and dy in ``result.json`` and its CSV, the extremal
density in ``result.json`` and ``extremal.csv``) is written to both from
the same text, and files are streamed as their text is made: ``solve``
holds one eigenpair's text at a time, writing its ``result.json`` entry
and its CSV before formatting the next.  ``dumps_deterministic`` is the
join of the pieces ``_write_json`` writes.

Exit status: 0 when every requested assertion passes and all solvers
converge, 1 on solver non-convergence or a failed assertion (partial
outputs are still written), 2 on a malformed config.  A WARNING of the
``slmajorant`` logger goes to stderr as ``WARNING slmajorant: ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from itertools import islice
from pathlib import Path
from types import GeneratorType

import numpy as np

from .config import SolverConfig, is_finite_real
from .eigensolver import (
    MAX_INDEX,
    EigenPair,
    eigenfunction,
    eigenvalue,
    gap_lower_bound,
    upper_bound,
)
from .extremal import (
    PerturbationSpec,
    alpha_lower_bound,
    directional_derivative,
    perturbation_path,
    solve_extremal_gamma_eq1,
    solve_extremal_gamma_gt1,
)
from .measures import (
    ParameterError,
    Potential,
    Weight,
    parse_weight,
    potential_from_dict,
    potential_to_dict,
)
from .oracle import atom_grid_search, brute_force_max

__all__ = ["RunRequest", "parse_config", "run", "main", "dumps_deterministic"]

ORACLE_CELLS = 64        # fixed desk-scale resolution for oracle mode
ORACLE_SCAN_POINTS = 1001
FD_EPS = 1e-4
FD_GATE = 1e-5


class UsageError(ValueError):
    """Malformed run configuration."""


@dataclass(frozen=True)
class RunRequest:
    mode: str
    weight: Weight
    gamma: float
    potential: Potential | None = None
    direction: Potential | None = None
    n_max: int = 0
    alpha: float | None = None

    def __post_init__(self):
        if self.mode == "perturb" and self.direction is None:
            raise UsageError("mode 'perturb' requires key 'direction'")


# the largest n_max of the modes that read it: eigenvalue indices stop at
# MAX_INDEX, and bounds solves index n_max + 1 for the last gap
_N_MAX_LIMITS = {"solve": MAX_INDEX, "bounds": MAX_INDEX - 1}
_REQUEST_KEYS = {f.name for f in fields(RunRequest)}
_CONFIG_KEYS = {f.name for f in fields(SolverConfig)}


def parse_config(text: str) -> tuple[RunRequest, SolverConfig]:
    """Parse a UTF-8 JSON run configuration; unknown keys are rejected."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(doc) - _REQUEST_KEYS - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    def need(key, types):
        if key not in doc:
            raise UsageError(f"missing required key: {key}")
        val = doc[key]
        if not isinstance(val, types):
            raise UsageError(f"key {key!r} has the wrong type")
        return val

    mode = need("mode", str)
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        weight = parse_weight(need("weight", str))
    except (ParameterError, OSError) as exc:
        raise UsageError(f"key 'weight': {exc}") from exc
    gamma = need("gamma", (int, float))
    if not is_finite_real(gamma):
        raise UsageError("key 'gamma': must be a finite real number")
    gamma = float(gamma)
    if gamma < 1.0:
        raise UsageError("key 'gamma': admissible range is gamma >= 1")

    cfg_kwargs = {}
    for key in _CONFIG_KEYS:
        if key in doc:
            cfg_kwargs[key] = doc[key]
    try:
        cfg = SolverConfig(**cfg_kwargs)
    except (ParameterError, TypeError) as exc:
        raise UsageError(f"bad solver configuration: {exc}") from exc

    potentials = {}
    for key in ("potential", "direction"):
        if key in doc and not isinstance(doc[key], dict):
            raise UsageError(f"key {key!r}: must be an object")
        try:
            potentials[key] = potential_from_dict(doc[key]) if key in doc else None
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"key {key!r}: {exc}") from exc
    # bool is a subclass of int, but true is no count and no real number
    n_max = doc.get("n_max", 0)
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 0:
        raise UsageError("key 'n_max': must be a nonnegative integer")
    limit = _N_MAX_LIMITS.get(mode)
    if limit is not None and n_max > limit:
        raise UsageError(f"key 'n_max': mode {mode!r} takes at most {limit}, "
                         f"not {n_max}")
    alpha = None
    if "alpha" in doc:
        alpha = doc["alpha"]
        if not is_finite_real(alpha):
            raise UsageError("key 'alpha': must be a finite real number")
        alpha = float(alpha)
    return (
        RunRequest(
            mode=mode,
            weight=weight,
            gamma=gamma,
            potential=potentials["potential"],
            direction=potentials["direction"],
            n_max=n_max,
            alpha=alpha,
        ),
        cfg,
    )


# ---------------------------------------------------------------------------
# deterministic serialization
#
# Every value is formatted once, into text that JSON and CSV share: a
# float with 17 significant digits, NaN as NaN, an infinity as the string
# "Infinity" or "-Infinity", an integer in decimal, a boolean as true or
# false (and null and strings as in JSON).  Files are written piece by
# piece as the text is made.

_CSV_CHUNK_ROWS = 1024


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return f"{x:.17g}"


def _fmt_value(obj) -> str:
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _cells(values) -> list[str]:
    """The text of each value in a sequence or array.

    A column of floats with no NaN or infinity takes one %-format for all
    of its values.
    """
    if isinstance(values, np.ndarray):
        finite = values.dtype == np.float64 and bool(np.isfinite(values).all())
        values = values.tolist()
    else:
        finite = set(map(type, values)) == {float} and bool(np.isfinite(values).all())
    if finite and values:
        return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
    return list(map(_fmt_value, values))


class _Column:
    """A numeric column formatted once, for each file that holds it: a
    JSON array of its cells, or a column of a CSV file."""

    __slots__ = ("cells",)

    def __init__(self, values):
        self.cells = _cells(values)


def _json_block(items, indent: int):
    """An array with one item per line; a generator's items are made,
    and written, one at a time, and must be dicts."""
    lazy = isinstance(items, GeneratorType)
    pad = " " * (indent + 2)
    sep = "[\n"
    for item in items:
        if lazy and not isinstance(item, dict):
            raise TypeError("a generator in a JSON document must yield dicts")
        yield sep + pad
        yield from _json_pieces(item, indent + 2)
        sep = ",\n"
        del item  # written: let it go before a generator makes the next
    yield "[]" if sep == "[\n" else "\n" + " " * indent + "]"


def _json_pieces(obj, indent: int):
    """The JSON text of obj, without its leading indent, piece by piece:
    keys sorted, a list of numbers on one line."""
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        pad = " " * indent
        sep = "{\n"
        for k in sorted(obj):
            yield f'{sep}{pad}  "{k}": '
            yield from _json_pieces(obj[k], indent + 2)
            sep = ",\n"
        yield f"\n{pad}}}"
    elif isinstance(obj, _Column):
        yield "[" + ", ".join(obj.cells) + "]"
    elif isinstance(obj, GeneratorType):
        yield from _json_block(obj, indent)
    elif isinstance(obj, (list, tuple)):
        if any(issubclass(t, (dict, list, tuple, GeneratorType, _Column))
               for t in set(map(type, obj))):
            yield from _json_block(obj, indent)
        else:
            yield "[" + ", ".join(_cells(obj)) + "]"
    else:
        yield _fmt_value(obj)


def dumps_deterministic(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fixed 17-significant-digit floats: the
    text that _write_json writes, joined."""
    return " " * indent + "".join(_json_pieces(obj, indent))


def _write_json(path: Path, obj) -> None:
    """Write obj's JSON text as it is made.  A generator value is written
    as an array of the dicts it yields, one at a time."""
    with open(path, "w") as f:
        f.writelines(_json_pieces(obj, 0))
        f.write("\n")


def _write_columns(path: Path, header: list[str], columns: list[list[str]]) -> None:
    """The CSV writer: a header line, then one line per row of the
    columns' formatted cells, written in chunks of rows."""
    rows = zip(*columns)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CSV_CHUNK_ROWS)):
            f.write("\n".join(map(",".join, chunk)) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows of numbers, each column formatted once; rows of
    different lengths raise ValueError."""
    _write_columns(path, header, [_cells(col) for col in zip(*rows, strict=True)])


# ---------------------------------------------------------------------------
# modes


def _default_potential(req: RunRequest, cfg: SolverConfig) -> Potential:
    return req.potential if req.potential is not None else Potential.zero(cfg.grid_n)


def _solve_entry(out: Path, p: EigenPair, x: _Column) -> dict:
    """Format one eigenpair, write its CSV, and return its result.json
    entry, which shares the CSV's text."""
    y, dy = _Column(p.ys), _Column(p.dys_right)
    name = "eigenfunction.csv" if p.n == 0 else f"eigenfunction.{p.n}.csv"
    _write_columns(out / name, ["x", "y", "dy"], [x.cells, y.cells, dy.cells])
    return {"n": p.n, "lambda": p.lam, "x": x, "y": y, "dy": dy}


def _run_solve(req: RunRequest, cfg: SolverConfig, out: Path) -> tuple[dict, int]:
    q = _default_potential(req, cfg)
    pairs = []
    for n in range(req.n_max + 1):
        lam = eigenvalue(q, n, cfg.tol_eigen)
        pairs.append(eigenfunction(q, lam, n))

    def entries():
        # every pair is sampled on q's node mesh, so x is formatted once;
        # each pair's y and dy live in _solve_entry's entry alone, which
        # _json_block lets go once written, so one pair's text is held at
        # a time
        x = _Column(pairs[0].xs)
        for p in pairs:
            yield _solve_entry(out, p, x)

    return {"lambdas": [p.lam for p in pairs], "eigenpairs": entries(),
            "potential": potential_to_dict(q)}, 0


def _run_extremal(req: RunRequest, cfg: SolverConfig, out: Path) -> tuple[dict, int]:
    if req.gamma == 1.0:
        report = solve_extremal_gamma_eq1(req.weight, cfg.k_atoms, cfg)
    else:
        report = solve_extremal_gamma_gt1(req.weight, req.gamma, cfg)
    result = {"gamma": req.gamma, **report.to_dict()}
    q = _Column(report.q_hat.density)
    result["q_hat"]["density"] = q
    sol = report.shooting   # the solver's own shooting at M: none again here
    mids = report.q_hat.midpoints()
    yv = sol.values(mids)
    rv = req.weight(mids)
    _write_columns(
        out / "extremal.csv",
        ["x", "y", "q", "y2_over_r"],
        [_cells(mids), _cells(yv), q.cells, _cells(yv * yv / rv)],
    )
    _write_csv(out / "trace.csv", ["iter", "lambda0", "residual"], report.trace)
    return result, 0 if report.converged else 1


def _run_oracle(req: RunRequest, cfg: SolverConfig, out: Path) -> tuple[dict, int]:
    if req.gamma == 1.0:
        res = atom_grid_search(req.weight, ORACLE_SCAN_POINTS, cfg)
        _write_csv(out / "scan.csv", ["zeta", "lambda0"], res.scan)
    else:
        res = brute_force_max(req.weight, req.gamma, ORACLE_CELLS, cfg)
    return {"gamma": req.gamma, **res.to_dict()}, 1 if res.stalled else 0


def _run_bounds(req: RunRequest, cfg: SolverConfig, out: Path) -> tuple[dict, int]:
    q = _default_potential(req, cfg)
    lams = [eigenvalue(q, n, cfg.tol_eigen) for n in range(req.n_max + 2)]
    header = ["n", "lambda", "upper_bound", "gap", "gap_lower_bound", "pass"]
    rows = []
    for n in range(req.n_max + 1):
        ub = upper_bound(q, n)
        gap = lams[n + 1] - lams[n]
        glb, _ = gap_lower_bound(q, n)
        ok = lams[n] <= ub * (1.0 + 1e-12) + 1e-12
        if not q.atoms:
            ok = ok and gap >= glb * (1.0 - 1e-12) - 1e-12
        rows.append((n, lams[n], ub, gap, glb, ok))
    all_pass = all(ok for *_, ok in rows)
    _write_csv(out / "bounds.csv", header, rows)
    return ({"rows": [dict(zip(header, row)) for row in rows], "all_pass": all_pass},
            0 if all_pass else 1)


def _run_perturb(req: RunRequest, cfg: SolverConfig, out: Path) -> tuple[dict, int]:
    base = _default_potential(req, cfg)
    p = req.direction
    if req.alpha is not None:
        alpha = req.alpha
    elif req.gamma == 1.0:
        alpha = 0.0
    else:
        alpha = alpha_lower_bound(req.weight, req.gamma, base, p) + 1.0
    spec = PerturbationSpec(base=base, direction=p, alpha=alpha, weight=req.weight)
    analytic = directional_derivative(spec, req.gamma)
    lam_plus = eigenvalue(perturbation_path(spec, FD_EPS), 0, 1e-13)
    lam_minus = eigenvalue(perturbation_path(spec, -FD_EPS), 0, 1e-13)
    fd = (lam_plus - lam_minus) / (2.0 * FD_EPS)
    diff = abs(analytic - fd)
    ok = diff <= FD_GATE
    return {"gamma": req.gamma, "alpha": alpha, "analytic": analytic,
            "finite_difference": fd, "abs_diff": diff, "eps": FD_EPS,
            "pass": ok}, 0 if ok else 1


# the one list of modes: each mode and its runner
_RUNNERS = {"solve": _run_solve, "extremal": _run_extremal, "oracle": _run_oracle,
            "bounds": _run_bounds, "perturb": _run_perturb}
MODES = tuple(_RUNNERS)


def run(request: RunRequest, cfg: SolverConfig) -> int:
    """Run a request into cfg.output_dir and return its exit status.

    The mode's runner writes its CSV files and returns its result.json
    payload, which is written here behind the mode and weight."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload, status = _RUNNERS[request.mode](request, cfg, out)
    _write_json(out / "result.json",
                {"mode": request.mode, "weight": request.weight.literal(), **payload})
    return status


def _log_to_stderr():
    """Print the slmajorant logger's records on stderr behind their level
    and logger name; returns the function that removes the handler.

    Only the gamma > 1 extremal solver logs (a stop at the damping
    floor), so only its runs import logging, about 0.45 MB and 10 ms."""
    import logging

    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("slmajorant")
    logger.addHandler(handler)
    return lambda: logger.removeHandler(handler)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slmajorant",
        description="Extremal ground-eigenvalue computations for Dirichlet "
        "Sturm-Liouville problems over weighted potential balls.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output-dir", help="override the config's output_dir")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        request, cfg = parse_config(text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output_dir:
        cfg = replace(cfg, output_dir=args.output_dir)
    logs = request.mode == "extremal" and request.gamma > 1.0
    unlog = _log_to_stderr() if logs else None
    try:
        status = run(request, cfg)
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if unlog is not None:   # main runs many times in one process
            unlog()
    return status


if __name__ == "__main__":
    sys.exit(main())
