"""The benchmark's layer tracer names ctsim functions by module and
attribute path; a rename in ctsim must fail here, not in the benchmark.
A traced run must also fire every wrapper and repeat its counts, or every
traced benchmark iteration fails; that is checked here on the benchmark's
own workloads, through its own child process."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import PERFBENCH, perfbench_module


def test_every_tracer_target_resolves():
    tracer = perfbench_module("tracer")
    targets = {**tracer.SPANS, **tracer.COUNTS}
    assert targets
    missing = []
    for metric, (module, path) in targets.items():
        owner = importlib.import_module(f"ctsim.{module}")
        *cls, attr = path.split(".")
        if cls:
            # methods are replaced in their class's own namespace
            target = vars(getattr(owner, cls[0], object)).get(attr)
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            missing.append(f"{metric}: ctsim.{module}.{path}")
    assert not missing


def _verify_fires() -> tuple[str, ...]:
    """VERIFY_FIRES as perfbench/run.py assigns it, read without running
    the benchmark's module."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "VERIFY_FIRES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py assigns no VERIFY_FIRES")


def _traced_child(tracer, tmp_path, tag, argv) -> tuple[dict, dict]:
    """One benchmark child with the tracer on: (calls per span, counts)."""
    trace = tmp_path / f"{tag}.trace"
    env = dict(os.environ, PERFBENCH_TRACE=str(trace),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"),
         str(tmp_path / f"{tag}.json"), *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    data = json.loads(trace.read_text())
    layers = tracer.layer_times(data)
    return {name: row["calls"] for name, row in layers.items()}, \
        data["counts"]


@pytest.fixture(scope="module")
def crowd_yaml(tmp_path_factory):
    workloads = perfbench_module("workloads")
    path = tmp_path_factory.mktemp("crowd") / "crowd-28.yaml"
    path.write_text(workloads.scenario_yaml("crowd", 28))
    return path


@pytest.mark.parametrize("workload", ["crowd", "adversaries"])
def test_traced_run_and_verify_fire_every_wrapper(workload, crowd_yaml,
                                                  tmp_path):
    tracer = perfbench_module("tracer")
    if workload == "crowd":
        scenario = [str(crowd_yaml)]
    else:
        scenario = [str(PERFBENCH.parent / "scenarios" / "adversaries.yaml"),
                    "--seed-override", "28"]
    out = tmp_path / "out"
    run = ["run", *scenario, "--out-dir", str(out)]
    calls, counts = _traced_child(tracer, tmp_path, "run", run)
    silent = [name for name, n in {**calls, **counts}.items() if n == 0]
    assert not silent, f"run: wrappers never fired: {silent}"

    vcalls, _ = _traced_child(tracer, tmp_path, "verify",
                              ["verify", str(out / "ledger.bin")])
    fires = _verify_fires()
    assert fires
    silent = [name for name in fires if vcalls[name] == 0]
    assert not silent, f"verify: wrappers never fired: {silent}"

    if workload == "crowd":
        again = _traced_child(tracer, tmp_path, "again",
                              ["run", *scenario, "--out-dir",
                               str(tmp_path / "again")])
        assert again == (calls, counts)
