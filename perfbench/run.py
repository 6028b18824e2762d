"""End-to-end and per-layer benchmark for ctsim.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. Every measurement is a fresh child
process (``perfbench/child.py``) that imports ctsim from the checkout's
``src/``; children run one at a time from this process.

The seed gives each workload ``VARIANTS`` scenarios of the same size
(sub-seeds ``seed * VARIANTS + j``), because how much work one scenario
makes varies with its seed: crowd's run time ranged over about 25% from
seed to seed. One iteration runs ``ctsim run`` on one variant and then
``ctsim verify`` on the ledger it wrote; iterations take the variants in
turn and repeat until the next one would overrun ``--seconds``, but the
first round over all variants always runs.

``--trace 0`` prints the end-to-end metrics: for each, the median over a
variant's iterations, averaged over the variants. They are ``setup_s``
(child start to the return of ``World(cfg)``), ``run_s`` and ``verify_s``
(wall time of each child) and ``run_rss_mb`` / ``verify_rss_mb`` (peak
RSS of that child alone, from ``os.wait4``).

``--trace 1`` traces the first variant only. Each iteration is a traced
run and a traced verify (the first iteration also an untraced run, for
``trace.overhead_frac``); it makes at least two iterations and prints the
per-layer metrics: calls and self time per layer function, exact counts
read from the artifacts, and ``trace.overhead_frac``. Metric names and
units come from BENCHMARK.json.

Every iteration is checked: both children exit 0, verify prints
``OK height=H`` with H equal to the report's chain height, and the sha256
digests of ledger.bin, events.jsonl and report.json are identical across
all runs of one variant, traced or not. A traced run must also fire every
layer wrapper and repeat its counts exactly. An iteration that fails a
check counts as failed. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
names the curve kernel and Python version measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import tracer
import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# one directory per benchmark process, so runs in one checkout never share
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
CHILD = os.path.join(HERE, "child.py")
ARTIFACTS = ("ledger.bin", "events.jsonl", "report.json")
CHILD_TIMEOUT_S = 150
VERIFY_OK = re.compile(r"^OK height=(\d+) ", re.M)
# scenarios per seed in an untraced run; their mean evens out the
# seed-to-seed difference in work
VARIANTS = 4

# split-heal stays runnable by hand, but BENCHMARK.json leaves it out: its
# ten-seed spread of run_s reached 0.2-0.4 on a shared 2-vCPU host, more
# than the 0.25 bound, as its fork pattern and work vary with the seed
WORKLOADS = ("crowd", "split-heal", "adversaries")

# spans entered once per child, reported by their inclusive time (``.s``)
# instead of calls and self time
TOTAL_ONLY = ("ledger.write_ledger", "ledger.read_ledger",
              "replica.replay_blocks", "report.build_report",
              "report.dump_events", "report.load_events",
              "scenario.load_config")
# wrappers that must fire in every traced verify child
VERIFY_FIRES = ("ledger.read_ledger", "replica.replay_blocks",
                "replica.apply", "crypto.verify", "ecbackend.shamir_mult")
# layers whose self time the verify child reports, by metric prefix
VERIFY_LAYERS = ("ecbackend", "crypto", "ledger", "consensus", "trust",
                 "replica")


class CheckFailed(Exception):
    pass


@dataclass
class Child:
    """Outcome of one finished child process."""
    code: int
    wall_s: float
    rss_mb: float
    started: float      # time.monotonic() just before the spawn
    stdout: str
    stderr: str
    sidecar: dict


def spawn(tag: str, argv: list[str], trace_path: str | None) -> Child:
    """Run child.py with ``argv`` to completion and measure it."""
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    side_path = os.path.join(WORK, f"{tag}.json")
    for path in (side_path, trace_path):
        if path and os.path.exists(path):
            os.remove(path)
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    if trace_path:
        env["PERFBENCH_TRACE"] = trace_path
    args = [sys.executable, CHILD, side_path, *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        started = time.monotonic()
        pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    # a child that hangs is killed, so wait4 below always returns
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                             (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # interrupted: take the child down with us rather than orphan it
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.monotonic() - started
    sidecar = {}
    if os.path.exists(side_path):
        with open(side_path) as fh:
            sidecar = json.load(fh)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux
    return Child(os.waitstatus_to_exitcode(status), wall,
                 usage.ru_maxrss / 1024, started, stdout, stderr, sidecar)


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def scenario_args(workload: str, seed: int) -> list[str]:
    """Write the workload's scenario; return the ``ctsim run`` arguments."""
    if workload == "adversaries":
        return [os.path.join(ROOT, workloads.ADVERSARIES_SCENARIO),
                "--seed-override", str(seed)]
    text = workloads.scenario_yaml(workload, seed)
    if text != workloads.scenario_yaml(workload, seed) \
            or text == workloads.scenario_yaml(workload, seed + 1):
        raise CheckFailed(f"{workload} scenario is not a function of the seed")
    path = os.path.join(WORK, f"{workload}-{seed}.yaml")
    with open(path, "w") as fh:
        fh.write(text)
    return [path]


class Bench:
    """The first ``variants`` scenarios of a workload and seed."""

    def __init__(self, workload: str, seed: int, variants: int):
        self.run_args = [scenario_args(workload, seed * VARIANTS + j)
                         for j in range(variants)]
        self.expected: dict[int, dict[str, str]] = {}
        self.context: dict | None = None
        self.plain_run_s: float | None = None

    def run_child(self, tag: str, variant: int,
                  trace: bool) -> tuple[Child, str]:
        out_dir = os.path.join(WORK, tag)
        shutil.rmtree(out_dir, ignore_errors=True)
        trace_path = os.path.join(WORK, f"{tag}.trace") if trace else None
        child = spawn(tag, ["run", *self.run_args[variant],
                            "--out-dir", out_dir], trace_path)
        self.check_child("run", child)
        if child.sidecar.get("world_ready") is None:
            raise CheckFailed("run child never built a World")
        found = digests(out_dir)
        if self.expected.setdefault(variant, found) != found:
            raise CheckFailed(f"{tag}: artifacts differ from the first run "
                              f"of variant {variant}")
        return child, out_dir

    def verify_child(self, tag: str, out_dir: str, trace: bool) -> Child:
        trace_path = os.path.join(WORK, f"{tag}.trace") if trace else None
        child = spawn(tag, ["verify", os.path.join(out_dir, "ledger.bin")],
                      trace_path)
        self.check_child("verify", child)
        match = VERIFY_OK.search(child.stdout)
        with open(os.path.join(out_dir, "report.json")) as fh:
            height = json.load(fh)["chain"]["height"]
        if match is None or int(match.group(1)) != height:
            raise CheckFailed(f"{tag}: verify printed {child.stdout!r}, "
                              f"report height is {height}")
        return child

    def check_child(self, what: str, child: Child) -> None:
        if child.code != 0:
            raise CheckFailed(f"{what} exited {child.code}: "
                              f"{child.stderr.strip()[-500:]}")
        context = {k: child.sidecar.get(k)
                   for k in ("backend", "python", "ctsim_file")}
        if self.context is None:
            self.context = context
        elif context != self.context:
            raise CheckFailed(f"{what} ran on {context}, not {self.context}")


def e2e_iteration(bench: Bench, i: int, variant: int) -> dict[str, float]:
    run, out_dir = bench.run_child(f"run{i}", variant, trace=False)
    verify = bench.verify_child(f"verify{i}", out_dir, trace=False)
    return {"setup_s": run.sidecar["world_ready"] - run.started,
            "run_s": run.wall_s, "verify_s": verify.wall_s,
            "run_rss_mb": run.rss_mb, "verify_rss_mb": verify.rss_mb}


def load_trace(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def artifact_counts(out_dir: str) -> dict[str, int]:
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    kinds: dict[str, int] = {}
    max_depth = 0
    with open(os.path.join(out_dir, "events.jsonl")) as fh:
        for line in fh:
            entry = json.loads(line)
            kinds[entry["event"]] = kinds.get(entry["event"], 0) + 1
            if entry["event"] == "fork_switch":
                max_depth = max(max_depth, entry["depth"])
    by_state = report["requests"]["by_state"]
    return {
        "chain.height": report["chain"]["height"],
        "chain.txs": sum(report["chain"]["txs"].values()),
        "events.count": sum(kinds.values()),
        "events.tick": kinds.get("tick", 0),
        "blocks.generated": kinds.get("block_generated", 0),
        "blocks.rejected": kinds.get("block_rejected", 0),
        "fork.switches": kinds.get("fork_switch", 0),
        "fork.max_depth": max_depth,
        "requests.granted": by_state.get("GRANTED", 0),
        "requests.denied": by_state.get("DENIED", 0),
    }


def trace_iteration(bench: Bench, i: int) -> tuple[dict, dict]:
    """Traced run and traced verify: (exact counts, timings).

    The first iteration also makes an untraced run, to check that tracing
    leaves the artifacts byte-identical and to measure its overhead.
    """
    if bench.plain_run_s is None:
        plain, _ = bench.run_child(f"run{i}", 0, trace=False)
        bench.plain_run_s = plain.wall_s
    traced, out_dir = bench.run_child(f"trun{i}", 0, trace=True)
    bench.verify_child(f"tverify{i}", out_dir, trace=True)
    run_trace = load_trace(os.path.join(WORK, f"trun{i}.trace"))
    layers = tracer.layer_times(run_trace)
    vlayers = tracer.layer_times(
        load_trace(os.path.join(WORK, f"tverify{i}.trace")))

    silent = [f"run:{name}" for name, row in layers.items()
              if row["calls"] == 0]
    silent += [f"run:{name}" for name, n in run_trace["counts"].items()
               if n == 0]
    silent += [f"verify:{name}" for name in VERIFY_FIRES
               if vlayers[name]["calls"] == 0]
    if silent:
        raise CheckFailed(f"layer wrappers never fired: {silent}")

    counts = dict(run_trace["counts"])
    counts.update(artifact_counts(out_dir))
    times = {}
    for name, row in layers.items():
        if name in TOTAL_ONLY:
            times[f"{name}.s"] = row["total_s"]
        else:
            counts[f"{name}.calls"] = row["calls"]
            times[f"{name}.self_s"] = row["self_s"]
    # fork replay's own self time is small; its cost is in the applies
    # it makes, so its inclusive time is reported as well
    times["sim.side_replica.s"] = layers["sim.side_replica"]["total_s"]
    times["replica.replay_blocks.s"] = \
        vlayers["replica.replay_blocks"]["total_s"]
    for layer in VERIFY_LAYERS:
        times[f"verify.{layer}.self_s"] = sum(
            row["self_s"] for name, row in vlayers.items()
            if name.split(".")[0] == layer)
    times["trace.overhead_frac"] = traced.wall_s / bench.plain_run_s - 1
    return counts, times


def derived(counts: dict[str, int]) -> dict[str, float]:
    return {
        "crypto.verify.miss_ratio":
            counts["ecbackend.shamir_mult.calls"]
            / counts["crypto.verify.calls"],
        "replica.applies_per_height":
            counts["replica.apply.calls"] / counts["chain.height"],
    }


def declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(bench: Bench, seconds: float, trace: bool):
    """Iterate until the next iteration would overrun; collect samples.

    Iterations take the variants in turn, and samples are kept per
    variant. The first round over all variants always runs. A traced
    measurement makes at least two iterations, so that its exact counts
    are always compared between two runs.
    """
    deadline = time.monotonic() + seconds
    variants = len(bench.run_args)
    samples: list[list[dict]] = [[] for _ in range(variants)]
    counts, attempted, failed, errors = None, 0, 0, []
    least = 2 if trace else variants
    while True:
        began = time.monotonic()
        variant = attempted % variants
        attempted += 1
        try:
            if trace:
                got_counts, sample = trace_iteration(bench, attempted)
                if counts is None:
                    counts = got_counts
                elif got_counts != counts:
                    changed = sorted(k for k in counts
                                     if counts[k] != got_counts.get(k))
                    raise CheckFailed(f"counts differ between runs: "
                                      f"{changed}")
            else:
                sample = e2e_iteration(bench, attempted, variant)
            samples[variant].append(sample)
            shown = {"trace.overhead_frac": sample["trace.overhead_frac"]} \
                if trace else sample
            print(f"iteration {attempted} variant {variant}: " + " ".join(
                f"{k}={v:.4g}" for k, v in shown.items()), file=sys.stderr)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failed += 1
            errors.append(f"iteration {attempted}: {exc}")
        now = time.monotonic()
        if now + (now - began) > deadline and attempted >= least:
            return samples, counts, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ctsim", "cli.py")):
        print(f"no ctsim sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(WORK)
    try:
        bench = Bench(args.workload, args.seed,
                      1 if args.trace else VARIANTS)
        samples, counts, attempted, failed, errors = measure(
            bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    if not all(samples):
        print("every iteration of a variant failed", file=sys.stderr)
        return 1

    values: dict[str, float] = {}
    for name in samples[0][0]:
        values[name] = statistics.fmean(
            statistics.median(s[name] for s in runs) for runs in samples)
    if counts is not None:
        values.update(counts)
        values.update(derived(counts))
    units = declared_units(bool(args.trace))
    if set(values) != set(units):
        print(f"measured and declared metrics differ: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    # exact counts repeat run to run, so later changes can cite them as
    # counts rather than as timings
    context = dict(bench.context or {}, workload=args.workload,
                   seed=args.seed, iterations=[len(s) for s in samples],
                   digests=bench.expected, counts=counts)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
