"""Smoke tests of the benchmark itself.

    python3 -m pytest bench -q

They run very short task lists (``--smoke``) and check that the harness
runs end to end and that every traced boundary is reached.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import slmajorant.extremal  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    """Span names reached, and outcomes, of one traced smoke pass per workload."""
    reached, outcomes = set(), []
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, tmp_path_factory.mktemp(name), workloads.SMOKE)
        wl.tracer = tracing.Tracer()
        wl.tracer.install()
        try:
            assert wl.tracer.unbound() == []
            outcomes += [(t.id, workloads.run_task(t, wl)) for t in wl.tasks]
        finally:
            wl.tracer.uninstall()
        reached |= {s[tracing.NAME] for s in wl.tracer.spans}
    return reached, outcomes


def test_every_traced_boundary_is_reached(traced_smoke):
    reached, _ = traced_smoke
    assert set(tracing.SPAN_NAMES) - reached == set()


def test_smoke_answers_pass_their_checks(traced_smoke):
    _, outcomes = traced_smoke
    assert [(tid, o.wrong) for tid, o in outcomes if o.wrong] == []


def test_a_missed_rebinding_is_reported():
    tracer = tracing.Tracer()
    tracer.install()
    wrapped = slmajorant.extremal.eigenvalue
    try:
        slmajorant.extremal.eigenvalue = wrapped.__wrapped__
        assert tracer.unbound() == ["slmajorant.extremal.eigenvalue"]
    finally:
        slmajorant.extremal.eigenvalue = wrapped
        tracer.uninstall()
    assert slmajorant.extremal.eigenvalue is wrapped.__wrapped__


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 11, tmp_path / "a", workloads.SMOKE)
        b = workloads.build(name, 11, tmp_path / "b", workloads.SMOKE)
        c = workloads.build(name, 12, tmp_path / "c", workloads.SMOKE)
        if name == "cli-spectrum":
            def text(wl):
                return [Path(t.args["config"]).read_text() for t in wl.tasks]
            assert text(a) == text(b) != text(c)
        else:
            assert a.tasks == b.tasks != c.tasks


@pytest.mark.parametrize("trace", ["0", "1"])
def test_harness_runs_end_to_end(trace):
    proc = _run("--workload", "cli-spectrum", "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "atoms-eq1", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
