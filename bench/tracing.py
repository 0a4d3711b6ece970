"""Spans around slmajorant's layer boundaries, recorded from outside.

The tracer wraps the functions one module calls in another and keeps one
span per call in memory: name, task id, parent span, start and end.  A
span's self time is its duration minus the time its direct children cover
(calls are single-threaded, so children never overlap).

Functions are rebound by identity: every ``slmajorant`` module global that
is the original function object is replaced by the wrapper, which covers
the modules that imported a name directly (``extremal``, ``oracle`` and
``cli`` bind ``eigenvalue``, ``_eigenvalue_warm`` and ``eigenfunction``;
``eigensolver`` binds ``seminorm``) as well as the package namespace the
benchmark calls through.  ``Potential`` and ``ShootingSolution`` are
patched on the class, which every importer shares.  ``unbound()`` lists any
module global that still holds an original after installation, so a
missed rebinding fails loudly instead of reading as zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute); segments are counted for the sweep kernel
FUNCTIONS = (
    ("propagate.phase", "slmajorant._propagate", "phase"),
    ("propagate.build_segments", "slmajorant._propagate", "build_segments"),
    ("propagate.propagate", "slmajorant._propagate", "propagate"),
    ("propagate.node_mesh", "slmajorant._propagate", "node_mesh"),
    ("propagate.sq_integrals", "slmajorant._propagate", "sq_integrals"),
    ("propagate.cs_arrays", "slmajorant._propagate", "cs_arrays"),
    ("eigen.cold", "slmajorant.eigensolver", "eigenvalue"),
    ("eigen.warm", "slmajorant.eigensolver", "_eigenvalue_warm"),
    ("eigen.eigenfunction", "slmajorant.eigensolver", "eigenfunction"),
    ("measures.seminorm", "slmajorant.measures", "seminorm"),
    ("extremal.gt1", "slmajorant.extremal", "solve_extremal_gamma_gt1"),
    ("extremal.eq1", "slmajorant.extremal", "solve_extremal_gamma_eq1"),
    ("extremal.char_map", "slmajorant.extremal", "_char_map"),
    ("extremal.alpha_lower_bound", "slmajorant.extremal", "alpha_lower_bound"),
    ("extremal.directional_derivative", "slmajorant.extremal",
     "directional_derivative"),
    ("extremal.perturbation_path", "slmajorant.extremal", "perturbation_path"),
    ("oracle.brute_force", "slmajorant.oracle", "brute_force_max"),
    ("oracle.atom_scan", "slmajorant.oracle", "atom_grid_search"),
    ("cli.main", "slmajorant.cli", "main"),
)

# (span name, module, class, method)
METHODS = (
    ("measures.potential", "slmajorant.measures", "Potential", "__post_init__"),
    ("eigen.shooting", "slmajorant.eigensolver", "ShootingSolution", "__init__"),
)

SPAN_NAMES = tuple(n for n, *_ in FUNCTIONS) + tuple(n for n, *_ in METHODS)
SOLVES = ("eigen.cold", "eigen.warm")

# span record fields
NAME, TASK, PARENT, START, END, SEGMENTS = range(6)


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "slmajorant" or k.startswith("slmajorant."))]


class Tracer:
    """Installs span wrappers; ``spans`` holds one record per call made
    while ``task`` names the running task."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    def _wrap(self, name, fn, count_segments=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.task is None:   # outside a task's public call
                return fn(*args, **kwargs)
            rec = [name, tracer.task, stack[-1] if stack else -1, 0.0, 0.0,
                   len(args[0]) if count_segments else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, name == "propagate.phase")
            self._originals[id(orig)] = f"{modname}.{attr}"
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def unbound(self) -> list[str]:
        """Module globals that still hold an unwrapped boundary function."""
        left = []
        for mod in _package_modules():
            for key, val in vars(mod).items():
                if id(val) in self._originals:
                    left.append(f"{mod.__name__}.{key}")
        return left


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _fallbacks(names, parents) -> int:
    """Cold solves nested inside a warm solve."""
    return sum(1 for n, p in zip(names, parents)
               if n == "eigen.cold" and p >= 0 and names[p] == "eigen.warm")


def _inside(spans, roots: tuple[str, ...]) -> list[bool]:
    """Whether each span is a root-named span or lies below one."""
    flags: list[bool] = []
    for s in spans:
        p = s[PARENT]
        flags.append(s[NAME] in roots or (p >= 0 and flags[p]))
    return flags


def layer_metrics(spans, reports) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``reports`` carries what only the task results know: outer-iteration
    counts of the gamma > 1 solves, oracle iterations and CLI bytes.
    """
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    total_s = dict.fromkeys(SPAN_NAMES, 0.0)
    segments = 0
    for s, st in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
        total_s[s[NAME]] += s[END] - s[START]
        segments += s[SEGMENTS]

    names = [s[NAME] for s in spans]
    parents = [s[PARENT] for s in spans]
    in_solve = _inside(spans, SOLVES)
    top_solves = sum(1 for n, p in zip(names, parents)
                     if n in SOLVES and not (p >= 0 and in_solve[p]))
    sweeps_in_solves = sum(1 for n, f in zip(names, in_solve)
                           if n == "propagate.phase" and f)
    in_eq1 = _inside(spans, ("extremal.eq1",))
    in_oracle = _inside(spans, ("oracle.brute_force", "oracle.atom_scan"))
    eq1_solves = sum(1 for n, f in zip(names, in_eq1) if n in SOLVES and f)
    oracle_solves = sum(1 for n, f in zip(names, in_oracle) if n in SOLVES and f)
    outer = reports["outer_iters"]
    oracle_iters = reports["oracle_iterations"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "propagate.phase.calls": calls["propagate.phase"],
        "propagate.phase.segments": segments,
        "propagate.phase.self_s": self_s["propagate.phase"],
        "propagate.phase.ns_per_segment":
            ratio(self_s["propagate.phase"], segments) * 1e9,
        "propagate.build_segments.calls": calls["propagate.build_segments"],
        "propagate.build_segments.self_s": self_s["propagate.build_segments"],
        "propagate.propagate.self_s": self_s["propagate.propagate"],
        "propagate.node_mesh.self_s": self_s["propagate.node_mesh"],
        "propagate.sq_integrals.self_s": self_s["propagate.sq_integrals"],
        "propagate.cs_arrays.self_s": self_s["propagate.cs_arrays"],
        "eigen.solves.cold": calls["eigen.cold"],
        "eigen.solves.warm": calls["eigen.warm"],
        "eigen.warm_fallbacks": _fallbacks(names, parents),
        "eigen.sweeps_per_solve": ratio(sweeps_in_solves, top_solves),
        "eigen.solve.self_s": self_s["eigen.cold"] + self_s["eigen.warm"],
        "eigen.shooting.calls": calls["eigen.shooting"],
        "eigen.shooting.self_s": self_s["eigen.shooting"],
        "eigen.eigenfunction.calls": calls["eigen.eigenfunction"],
        "eigen.eigenfunction.self_s": self_s["eigen.eigenfunction"],
        "measures.seminorm.calls": calls["measures.seminorm"],
        "measures.seminorm.self_s": self_s["measures.seminorm"],
        "measures.potential.calls": calls["measures.potential"],
        "measures.potential.self_s": self_s["measures.potential"],
        "extremal.outer_iters": outer,
        "extremal.iter_s": ratio(total_s["extremal.gt1"], outer),
        "extremal.char_map.self_s": self_s["extremal.char_map"],
        "extremal.eq1.solves_per_task": ratio(eq1_solves, calls["extremal.eq1"]),
        "oracle.iterations": oracle_iters,
        "oracle.solves_per_iter": ratio(oracle_solves, oracle_iters),
        "cli.main.self_s": self_s["cli.main"],
        "cli.bytes_written": reports["cli_bytes"],
    }


def task_counts(spans, task_ids) -> dict[str, int]:
    """Exact work counts of the given tasks: solves, sweeps, fallbacks."""
    ids = set(task_ids)
    names = [s[NAME] if s[TASK] in ids else None for s in spans]
    parents = [s[PARENT] for s in spans]
    return {
        "solves": sum(1 for n in names if n in SOLVES),
        "solves_cold": sum(1 for n in names if n == "eigen.cold"),
        "solves_warm": sum(1 for n in names if n == "eigen.warm"),
        "sweeps": sum(1 for n in names if n == "propagate.phase"),
        "warm_fallbacks": _fallbacks(names, parents),
    }
