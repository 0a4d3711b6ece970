"""Batch front end: one JSON config in, machine-readable results out.

A run is described by a single JSON document (see README for the schema);
the only flags are --config, --mode and --output-dir.  Outputs are
deterministic: floats are printed with 17 significant digits (enough to
round-trip IEEE doubles exactly), keys are sorted, and identical configs
produce byte-identical files.

Exit status: 0 when every requested assertion passes and all solvers
converge, 1 on solver non-convergence or a failed assertion (partial
outputs are still written), 2 on a malformed config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import SolverConfig
from .eigensolver import (
    ShootingSolution,
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

MODES = ("solve", "extremal", "oracle", "bounds", "perturb")
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

    def need(key, types, caster=lambda v: v):
        if key not in doc:
            raise UsageError(f"missing required key: {key}")
        val = doc[key]
        if not isinstance(val, types):
            raise UsageError(f"key {key!r} has the wrong type")
        return caster(val)

    mode = need("mode", str)
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        weight = parse_weight(need("weight", str))
    except (ParameterError, OSError) as exc:
        raise UsageError(f"key 'weight': {exc}") from exc
    gamma = need("gamma", (int, float), float)
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

    potential = direction = None
    if "potential" in doc:
        try:
            potential = potential_from_dict(doc["potential"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"key 'potential': {exc}") from exc
    if "direction" in doc:
        try:
            direction = potential_from_dict(doc["direction"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"key 'direction': {exc}") from exc
    # bool is a subclass of int, but true is no count and no real number
    n_max = doc.get("n_max", 0)
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 0:
        raise UsageError("key 'n_max': must be a nonnegative integer")
    alpha = None
    if "alpha" in doc:
        alpha = doc["alpha"]
        if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
                or not math.isfinite(alpha)):
            raise UsageError("key 'alpha': must be a finite real number")
        alpha = float(alpha)
    if mode == "perturb" and direction is None:
        raise UsageError("mode 'perturb' requires key 'direction'")
    return (
        RunRequest(
            mode=mode,
            weight=weight,
            gamma=gamma,
            potential=potential,
            direction=direction,
            n_max=n_max,
            alpha=alpha,
        ),
        cfg,
    )


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return f"{x:.17g}"


def _fmt_floats(values) -> str:
    """", ".join(map(_fmt_float, values)) for plain floats: one %-format
    over all of them when every value is finite."""
    if all(map(math.isfinite, values)):
        return ", ".join(["%.17g"] * len(values)) % tuple(values)
    return ", ".join(map(_fmt_float, values))


def dumps_deterministic(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fixed 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {dumps_deterministic(obj[k], indent + 2).lstrip()}'
            for k in sorted(obj)
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {float}:
            return f"{pad}[{_fmt_floats(obj)}]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            body = ", ".join(dumps_deterministic(v).strip() for v in obj)
            return f"{pad}[{body}]"
        items = ",\n".join(dumps_deterministic(v, indent + 2) for v in obj)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return f"{pad}{'true' if obj else 'false'}"
    if obj is None:
        return f"{pad}null"
    if isinstance(obj, (int, np.integer)):
        return f"{pad}{int(obj)}"
    if isinstance(obj, (float, np.floating)):
        return f"{pad}{_fmt_float(float(obj))}"
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path: Path, obj) -> None:
    path.write_text(dumps_deterministic(obj) + "\n")


def _csv_line(row) -> str:
    if all(type(v) is float for v in row):
        return ",".join(map(_fmt_float, row))
    cells = []
    for v in row:
        if isinstance(v, (bool, np.bool_)):
            cells.append("true" if v else "false")
        elif isinstance(v, (int, np.integer)):
            cells.append(str(int(v)))
        else:
            cells.append(_fmt_float(float(v)))
    return ",".join(cells)


def _write_csv(path: Path, header: list[str], rows) -> None:
    rows = list(rows)
    flat = [v for row in rows for v in row]
    lines = [",".join(header)]
    if (rows and set(map(len, rows)) == {len(header)}
            and set(map(type, flat)) == {float} and all(map(math.isfinite, flat))):
        # every row is len(header) finite floats: format the body at once
        line = ",".join(["%.17g"] * len(header))
        lines.append("\n".join([line] * len(rows)) % tuple(flat))
    else:
        lines += map(_csv_line, rows)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# modes


def _default_potential(req: RunRequest, cfg: SolverConfig) -> Potential:
    return req.potential if req.potential is not None else Potential.zero(cfg.grid_n)


def _run_solve(req: RunRequest, cfg: SolverConfig, out: Path) -> int:
    q = _default_potential(req, cfg)
    pairs = []
    for n in range(req.n_max + 1):
        lam = eigenvalue(q, n, cfg.tol_eigen)
        pairs.append(eigenfunction(q, lam, n))
    result = {
        "mode": "solve",
        "weight": req.weight.literal(),
        "lambdas": [p.lam for p in pairs],
        "eigenpairs": [p.to_dict() for p in pairs],
        "potential": potential_to_dict(q),
    }
    _write_json(out / "result.json", result)
    for p in pairs:
        name = "eigenfunction.csv" if p.n == 0 else f"eigenfunction.{p.n}.csv"
        _write_csv(
            out / name,
            ["x", "y", "dy"],
            zip(p.xs.tolist(), p.ys.tolist(), p.dys_right.tolist()),
        )
    return 0


def _run_extremal(req: RunRequest, cfg: SolverConfig, out: Path) -> int:
    if req.gamma == 1.0:
        report = solve_extremal_gamma_eq1(req.weight, cfg.k_atoms, cfg)
    else:
        report = solve_extremal_gamma_gt1(req.weight, req.gamma, cfg)
    result = {"mode": "extremal", "weight": req.weight.literal(),
              "gamma": req.gamma}
    result.update(report.to_dict())
    _write_json(out / "result.json", result)
    sol = ShootingSolution(report.q_hat, report.M)
    mids = report.q_hat.midpoints()
    yv = sol.values(mids)
    rv = req.weight.values_at(mids)
    _write_csv(
        out / "extremal.csv",
        ["x", "y", "q", "y2_over_r"],
        zip(mids.tolist(), yv.tolist(), report.q_hat.density.tolist(),
            (yv * yv / rv).tolist()),
    )
    _write_csv(
        out / "trace.csv",
        ["iter", "lambda0", "residual"],
        report.trace,
    )
    return 0 if report.converged else 1


def _run_oracle(req: RunRequest, cfg: SolverConfig, out: Path) -> int:
    if req.gamma == 1.0:
        res = atom_grid_search(req.weight, ORACLE_SCAN_POINTS, cfg)
        _write_csv(out / "scan.csv", ["zeta", "lambda0"], res.scan)
    else:
        res = brute_force_max(req.weight, req.gamma, ORACLE_CELLS, cfg)
    result = {"mode": "oracle", "weight": req.weight.literal(),
              "gamma": req.gamma}
    result.update(res.to_dict())
    _write_json(out / "result.json", result)
    return 0 if not res.stalled else 1


def _run_bounds(req: RunRequest, cfg: SolverConfig, out: Path) -> int:
    q = _default_potential(req, cfg)
    lams = [eigenvalue(q, n, cfg.tol_eigen) for n in range(req.n_max + 2)]
    rows = []
    all_pass = True
    for n in range(req.n_max + 1):
        ub = upper_bound(q, n)
        gap = lams[n + 1] - lams[n]
        glb, _ = gap_lower_bound(q, n)
        ok = lams[n] <= ub * (1.0 + 1e-12) + 1e-12
        if not q.atoms:
            ok = ok and gap >= glb * (1.0 - 1e-12) - 1e-12
        rows.append((n, lams[n], ub, gap, glb, ok))
        all_pass = all_pass and ok
    _write_csv(
        out / "bounds.csv",
        ["n", "lambda", "upper_bound", "gap", "gap_lower_bound", "pass"],
        rows,
    )
    result = {
        "mode": "bounds",
        "weight": req.weight.literal(),
        "rows": [
            {
                "n": n,
                "lambda": lam,
                "upper_bound": ub,
                "gap": gap,
                "gap_lower_bound": glb,
                "pass": ok,
            }
            for n, lam, ub, gap, glb, ok in rows
        ],
        "all_pass": all_pass,
    }
    _write_json(out / "result.json", result)
    return 0 if all_pass else 1


def _run_perturb(req: RunRequest, cfg: SolverConfig, out: Path) -> int:
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
    result = {
        "mode": "perturb",
        "weight": req.weight.literal(),
        "gamma": req.gamma,
        "alpha": alpha,
        "analytic": analytic,
        "finite_difference": fd,
        "abs_diff": diff,
        "eps": FD_EPS,
        "pass": ok,
    }
    _write_json(out / "result.json", result)
    return 0 if ok else 1


def run(request: RunRequest, cfg: SolverConfig) -> int:
    """Dispatch a run request; writes outputs into cfg.output_dir."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "solve": _run_solve,
        "extremal": _run_extremal,
        "oracle": _run_oracle,
        "bounds": _run_bounds,
        "perturb": _run_perturb,
    }
    return dispatch[request.mode](request, cfg, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slmajorant",
        description="Extremal ground-eigenvalue computations for Dirichlet "
        "Sturm-Liouville problems over weighted potential balls.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--mode", choices=MODES, help="override the config's mode")
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
    if args.mode:
        request = replace(request, mode=args.mode)
        if request.mode == "perturb" and request.direction is None:
            print("error: mode 'perturb' requires key 'direction'", file=sys.stderr)
            return 2
    if args.output_dir:
        cfg = replace(cfg, output_dir=args.output_dir)
    try:
        status = run(request, cfg)
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
