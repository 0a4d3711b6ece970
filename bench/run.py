"""slmajorant benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload extremal-gt1 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  One process runs every task, with BLAS and
OpenMP pinned to one thread.

--trace 0 runs every task of the workload once, then the list again in
order until ``--seconds`` have passed, and reports the end-to-end metrics
setup_s, tasks_per_s, task_s_p50 and peak_rss_mb.  --trace 1 runs
untraced and traced passes in pairs and reports the per-layer metrics,
the exact work counts of the workload's anchor tasks and
trace.overhead_frac.

Times are rescaled to a reference machine speed: a fixed piece of the
benchmark's own work is timed before and after every task, and the task's
wall time is multiplied by NOMINAL_REF_S over that reference time.  Other
load on a shared machine slows both alike, so the ratio stays steady
where raw wall times swing by tens of percent.  Raw wall times are
printed and kept in the results file too.

The run prints one line per task and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Results with every task's
answer and provenance go to .bench_run/ in the checkout; the traced run
also writes the spans of its first traced pass there.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
BASELINE = BENCH_DIR / "baseline.json"
SETUP_REPEATS = 5   # setups per run: this process plus fresh child processes
REF_LOOPS = 40_000
NOMINAL_REF_S = 0.02   # _reference_s() on a 2-CPU Intel Xeon host at typical load

E2E_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_s_p50": "s",
             "peak_rss_mb": "MB"}


def _load(workload: str, seed: int, run_dir: Path, smoke: bool):
    """Set-up: import the library from the checkout and generate inputs."""
    if not (SRC / "slmajorant" / "__init__.py").is_file():
        raise SystemExit(f"error: no slmajorant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import slmajorant
    import workloads

    if Path(slmajorant.__file__).resolve().parent != SRC / "slmajorant":
        raise SystemExit(f"error: imported slmajorant from {slmajorant.__file__}")
    sizes = workloads.SMOKE if smoke else workloads.FULL
    return workloads, workloads.build(workload, seed, run_dir, sizes)


def _setup(workload: str, seed: int, run_dir: Path, smoke: bool):
    """Set up once; returns the set-up time at the reference speed."""
    t0 = time.perf_counter()
    wmod, wl = _load(workload, seed, run_dir, smoke)
    warm = wmod.run_task(wl.warmup, wl)
    if warm.failure:
        raise SystemExit(f"error: warm-up task failed: {warm.failure}")
    setup_s = time.perf_counter() - t0
    ref = statistics.median(_reference_s() for _ in range(3))
    return wmod, wl, setup_s * NOMINAL_REF_S / ref


def _child_setup(workload: str, seed: int, smoke: bool) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else []),
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a child process failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _reference_s() -> float:
    """Seconds a fixed piece of the benchmark's own work takes right now.

    It is a pure-Python float loop with small numpy calls, the kind of work
    the library's hot paths do, so it slows down with them when other load
    on the machine does.  Times are rescaled by NOMINAL_REF_S / this value.
    """
    import numpy as np

    t0 = time.perf_counter()
    y, dy, theta = 0.0, 1.0, 0.0
    arr = np.linspace(0.0, 1.0, 64)
    for i in range(REF_LOOPS):
        c, s = math.cos(1e-3 * i), math.sin(1e-3 * i)
        y1, dy1 = c * y + s * dy, c * dy - s * y
        theta += math.atan2(y1, dy1) - math.atan2(y, dy)
        r = math.hypot(y1, dy1)
        y, dy = y1 / r, dy1 / r
        if i % 64 == 0:
            arr = np.sqrt(arr * arr + 1.0) - 1.0
    return time.perf_counter() - t0


def _run(wmod, wl, tasks, recorded):
    """Run tasks in order: [(task, outcome)].  Each outcome also gets
    ``scaled_s``, its time at the reference speed, from reference timings
    taken just before and just after the call."""
    rows = []
    ref_before = _reference_s()
    for task in tasks:
        out = wmod.run_task(task, wl)
        ref_after = _reference_s()
        out.scaled_s = out.seconds * 2.0 * NOMINAL_REF_S / (ref_before + ref_after)
        ref_before = ref_after
        if recorded is not None:
            wmod.check_baseline(out, recorded.get(task.id))
        rows.append((task, out))
    return rows


def _measure(wmod, wl, recorded, seconds):
    """Untraced: every task once, then the list again in order until the
    time is up.  Returns each task's outcomes."""
    t_end = time.perf_counter() + seconds
    rows = _run(wmod, wl, wl.tasks, recorded)
    i = 0
    while time.perf_counter() < t_end:
        rows += _run(wmod, wl, [wl.tasks[i % len(wl.tasks)]], recorded)
        i += 1
    return rows


def _measure_traced(wmod, wl, recorded, seconds, tracing):
    """Untraced and traced passes in pairs, at least one pair, while another
    pair fits in the time.  Returns (untraced passes, traced passes, tracers)."""
    untraced, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        untraced.append(_run(wmod, wl, wl.tasks, recorded))
        wl.tracer = tracing.Tracer()
        wl.tracer.install()
        try:
            missed = wl.tracer.unbound()
            if missed:
                raise SystemExit(f"error: wrappers not rebound in {missed}")
            traced.append(_run(wmod, wl, wl.tasks, None))
        finally:
            wl.tracer.uninstall()
        tracers.append(wl.tracer)
        wl.tracer = None
        now = time.perf_counter()
        if now + (now - t_pair) > t_start + seconds:
            return untraced, traced, tracers


def _provenance(seed: int) -> dict:
    def git_head():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    import hashlib
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "slmajorant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": git_head(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu,
    }


def _key(out) -> str:
    return json.dumps(out.answer, sort_keys=True)


def _drift(rows) -> list[str]:
    """Tasks whose answers differ between runs over the same inputs."""
    first: dict[str, str] = {}
    return sorted({t.id for t, o in rows if first.setdefault(t.id, _key(o)) != _key(o)})


def _layers(tracing, wl, rows, spans) -> dict:
    reports = {
        "outer_iters": sum(o.outer_iters for _, o in rows),
        "oracle_iterations": sum(o.oracle_iterations for _, o in rows),
        "cli_bytes": sum(o.cli_bytes for _, o in rows),
    }
    layer = tracing.layer_metrics(spans, reports)
    anchors = [t.id for t in wl.tasks if t.group == "anchor"]
    layer.update({f"anchor.{k}": v
                  for k, v in tracing.task_counts(spans, anchors).items()})
    layer["anchor.outer_iters"] = sum(
        o.outer_iters for t, o in rows if t.group == "anchor")
    return layer


def _unit(key: str, value) -> str:
    if isinstance(value, int):
        return "count"
    if key.endswith("_s"):
        return "s"
    return "ns" if key.endswith("ns_per_segment") else "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up seconds and exit")
    ap.add_argument("--smoke", action="store_true",
                    help="very short task lists, for the benchmark's own tests")
    args = ap.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    if args.setup_only:
        _, _, setup_s = _setup(args.workload, args.seed, OUT / f"{tag}-setup",
                               args.smoke)
        shutil.rmtree(OUT / f"{tag}-setup", ignore_errors=True)
        print(repr(setup_s))
        return 0

    run_dir = OUT / tag
    wmod, wl, setup_main = _setup(args.workload, args.seed, run_dir, args.smoke)
    setups = [setup_main]
    if not args.trace:
        setups += [_child_setup(args.workload, args.seed, args.smoke)
                   for _ in range(SETUP_REPEATS - 1)]

    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    recorded = None
    if baseline.get("seed") == args.seed and not args.smoke:
        recorded = baseline.get("answers", {}).get(args.workload, {})

    summary: dict = {}
    if args.trace:
        import tracing
        untraced, traced, tracers = _measure_traced(wmod, wl, recorded,
                                                    args.seconds, tracing)
        rows = [r for p in untraced + traced for r in p]
    else:
        rows = _measure(wmod, wl, recorded, args.seconds)
    # each task of the list counts once: its repeats are timing samples that
    # must reproduce its answer (see _drift), so attempted and failed depend
    # on the inputs alone, not on how many repeats fit in --seconds
    attempted = len(wl.tasks)
    failed = len({t.id for t, o in rows if o.failure})
    problems = []
    drift = _drift(rows)
    if drift:
        problems.append(f"answers differ between runs of the same input: {drift}")
    problems += [f"{tid}: {why}" for tid, why in
                 dict((t.id, o.wrong) for t, o in rows if o.wrong).items()]

    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for task, out in rows:
        raw.setdefault(task.id, []).append(out.seconds)
        scaled.setdefault(task.id, []).append(out.scaled_s)
    task_s = {tid: statistics.median(v) for tid, v in scaled.items()}
    first = rows[:len(wl.tasks)]
    for task, out in first:
        verdict = "ok" if not out.failure else f"FAIL ({out.failure})"
        shown = task.args if task.kind != "cli" else task.args["mode"]
        print(f"task {task.id:16s} {task.group:7s} {task_s[task.id]:8.4f}s "
              f"(n={len(raw[task.id])}, wall {statistics.median(raw[task.id]):.4f}s) "
              f"{json.dumps(shown)} -> {json.dumps(out.answer, sort_keys=True)} "
              f"{verdict}")

    if args.trace:
        layers = [_layers(tracing, wl, p, tr.spans) for p, tr in zip(traced, tracers)]
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced passes")
        metrics = {}
        for key, value in layers[0].items():
            if not isinstance(value, int):
                value = statistics.median(m[key] for m in layers)
            metrics[key] = {"value": value, "unit": _unit(key, value)}

        def total(passes):
            return sum(o.scaled_s for p in passes for _, o in p)

        metrics["trace.overhead_frac"] = {
            "value": total(traced) / total(untraced) - 1.0, "unit": "ratio"}
        ref = baseline.get("anchor_counts", {}).get(args.workload)
        if ref is not None and not args.smoke:
            got = {k[len("anchor."):]: v["value"] for k, v in metrics.items()
                   if k.startswith("anchor.")}
            summary["anchor_counts_match_baseline"] = got == ref
        # the traced passes repeat the same calls, so the first one is kept
        OUT.mkdir(exist_ok=True)
        with gzip.open(OUT / f"{tag}-spans.jsonl.gz", "wt") as fh:
            for span in tracers[0].spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
    else:
        # a pass over the fixed list takes the sum of the tasks' median times
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setups),
            "tasks_per_s": len(task_s) / sum(task_s.values()),
            "task_s_p50": statistics.median(task_s.values()),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        summary["samples"] = {"setup_s": len(setups), "tasks_per_s": len(rows),
                              "task_s_p50": len(rows)}
    summary["failed_frac"] = failed / attempted

    for key, m in metrics.items():
        n = summary.get("samples", {}).get(key)
        print(f"metric {key:34s} {m['value']!r:>24} {m['unit']}"
              + (f"  (n={n})" if n else ""))
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    if "anchor_counts_match_baseline" in summary:
        print(f"anchor counts match baseline: {summary['anchor_counts_match_baseline']}")
    for why in problems:
        print(f"INCORRECT {why}")

    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": _provenance(args.seed),
        "setup_samples_s": setups,
        "summary": summary,
        "problems": problems,
        "tasks": [{"id": t.id, "group": t.group, "kind": t.kind, "args": t.args,
                   "wall_s": raw[t.id], "scaled_s": scaled[t.id],
                   "answer": o.answer, "failure": o.failure}
                  for t, o in first],
        "metrics": metrics,
    }
    (OUT / f"{tag}{'-trace' if args.trace else ''}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
