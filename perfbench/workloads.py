"""Seeded scenario generators for the benchmark workloads.

Each synthetic workload turns the benchmark seed into a scenario YAML
file; ctsim only ever sees that file. The same seed gives byte-identical
YAML: ``random.Random`` seeded with a string hashes it with SHA-512, not
with the per-process ``hash``, so it is stable across processes.
``adversaries`` is the bundled scenario, run unchanged with the benchmark
seed as ``--seed-override``.
"""

from __future__ import annotations

import random

import yaml

# shared by every synthetic workload: 20 ms links with 10 ms jitter, and
# the default 300 ms block interval and 100 ms slot
LINKS = {"default_latency_ms": 20, "jitter_ms": 10}
CONSENSUS = {"block_interval_ms": 300, "slot_ms": 100, "base_target": "auto"}

CROWD = {"providers": 3, "users": 50, "requests": 100, "duration_ms": 15000}
SPLIT_HEAL = {"providers": 6, "users": 12, "requests": 24,
              "duration_ms": 90000, "partition_every_ms": 20000,
              "partition_for_ms": 10000}

# requests stop this long before the end, leaving time for confirmation
# and both feedbacks
TAIL_MS = 5000

ADVERSARIES_SCENARIO = "scenarios/adversaries.yaml"


def _providers(rng: random.Random, count: int) -> list[dict]:
    return [{"name": f"csp{i}",
             "stake": round(rng.uniform(0.2, 1.0), 3),
             "weights": [w := round(rng.uniform(0.2, 0.8), 2),
                         round(1 - w, 2)]}
            for i in range(count)]


def _users(rng: random.Random, count: int, homes: list[str],
           until_ms: int) -> tuple[list[dict], dict[str, str]]:
    """Users enrol at random homes, spread over the first ``until_ms``."""
    actions, home_of = [], {}
    for i in range(count):
        user, home = f"u{i}", rng.choice(homes)
        home_of[user] = home
        actions.append({"at_ms": 200 + i * (until_ms - 200) // count,
                        "action": "register_user", "user": user,
                        "home": home})
    return actions, home_of


def _requests(rng: random.Random, count: int, home_of: dict[str, str],
              names: list[str], start_ms: int, end_ms: int) -> list[dict]:
    """Cross-provider requests, evenly spaced with seeded jitter."""
    step = (end_ms - start_ms) // count
    users = sorted(home_of)
    out = []
    for i in range(count):
        user = rng.choice(users)
        target = rng.choice([n for n in names if n != home_of[user]])
        out.append({"at_ms": start_ms + i * step + rng.randrange(step),
                    "action": "request_access", "user": user,
                    "target": target, "resource": f"vm-{rng.randrange(4)}"})
    return out


def crowd(seed: int) -> dict:
    rng = random.Random(f"crowd:{seed}")
    p = CROWD
    nodes = _providers(rng, p["providers"])
    names = [n["name"] for n in nodes]
    users, home_of = _users(rng, p["users"], names, 2000)
    reqs = _requests(rng, p["requests"], home_of, names, 2500,
                     p["duration_ms"] - TAIL_MS)
    return {"seed": rng.getrandbits(63), "duration_ms": p["duration_ms"],
            "normalize_stakes": True, "consensus": CONSENSUS,
            "links": LINKS, "nodes": nodes, "actions": users + reqs}


def split_heal(seed: int) -> dict:
    rng = random.Random(f"split-heal:{seed}")
    p = SPLIT_HEAL
    nodes = _providers(rng, p["providers"])
    names = [n["name"] for n in nodes]
    users, home_of = _users(rng, p["users"], names, 2000)
    reqs = _requests(rng, p["requests"], home_of, names, 2500,
                     p["duration_ms"] - TAIL_MS)
    partitions = []
    for at in range(p["partition_every_ms"] // 2, p["duration_ms"],
                    p["partition_every_ms"]):
        half = sorted(rng.sample(names, len(names) // 2))
        rest = [n for n in names if n not in half]
        partitions.append({"at_ms": at, "groups": [half, rest]})
        partitions.append({"at_ms": at + p["partition_for_ms"], "heal": True})
    return {"seed": rng.getrandbits(63), "duration_ms": p["duration_ms"],
            "normalize_stakes": True, "consensus": CONSENSUS,
            "links": LINKS, "nodes": nodes, "partitions": partitions,
            "actions": users + reqs}


GENERATORS = {"crowd": crowd, "split-heal": split_heal}


def scenario_yaml(workload: str, seed: int) -> str:
    return yaml.safe_dump(GENERATORS[workload](seed), sort_keys=False)
