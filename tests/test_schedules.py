"""Fork handling under drawn delivery schedules.

The simulator is deterministic, so a schedule is just a config: link
latencies and jitter, asymmetric per-link overrides, partitions that cut
the roster into random groups, and a final heal. Whatever the schedule,
once the run stops and the wire drains every node holds one tip, each
replica equals a replay of its own chain, and no token is granted twice.
A node stops reading blocks from a source that sent it an invalid one; an
honest branch is valid at every receiver, so only a source whose drawn
behaviour forges blocks is ever rejected or discouraged.
"""

from hypothesis import given, settings, strategies as st

from ctsim.replica import replay_blocks
from ctsim.scenario import BEHAVIORS

from conftest import drain, replica_state, run_cfg

NAMES = ("p0", "p1", "p2", "p3", "p4")
STAKES = (0.1, 0.2, 0.3, 0.5)
DURATION_MS = 6000
# the behaviours that send blocks a receiver refuses
BLOCK_FORGERS = ("tamperer",)


@st.composite
def schedules(draw) -> dict:
    n = draw(st.integers(2, 5))
    names = NAMES[:n]
    nodes = [{"name": name, "stake": draw(st.sampled_from(STAKES)),
              "behavior": draw(st.sampled_from(BEHAVIORS))}
             for name in names]
    overrides = [{"from": src, "to": dst,
                  "latency_ms": draw(st.integers(1, 900))}
                 for src, dst in draw(st.lists(
                     st.tuples(st.sampled_from(names),
                               st.sampled_from(names)).filter(
                                   lambda p: p[0] != p[1]),
                     max_size=6, unique=True))]
    links = {"default_latency_ms": draw(st.integers(1, 400)),
             "jitter_ms": draw(st.integers(0, 60)), "overrides": overrides}

    heal_at = DURATION_MS - draw(st.integers(1500, 4000))
    partitions = []
    for at in sorted(draw(st.lists(st.integers(0, heal_at - 1),
                                   max_size=3))):
        # the roster in a drawn order, cut into 2..n nonempty groups
        order = draw(st.permutations(names))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=1,
                                    max_size=n - 1, unique=True)))
        groups = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
        partitions.append({"at_ms": at, "groups": groups})
        if draw(st.booleans()):     # healed mid-run
            partitions.append({"at_ms": draw(st.integers(at, heal_at)),
                               "heal": True})
    partitions.sort(key=lambda p: p["at_ms"])
    partitions.append({"at_ms": heal_at, "heal": True})

    actions = [{"at_ms": 100, "action": "register_user", "user": "u0",
                "home": draw(st.sampled_from(names))},
               {"at_ms": 150, "action": "register_user", "user": "u1",
                "home": draw(st.sampled_from(names))}]
    for _ in range(draw(st.integers(0, 4))):
        actions.append({"at_ms": draw(st.integers(300, heal_at)),
                        "action": "request_access",
                        "user": draw(st.sampled_from(("u0", "u1"))),
                        "target": draw(st.sampled_from(names)),
                        "resource": draw(st.sampled_from(("vm", "db")))})
    return {"seed": draw(st.integers(0, 2 ** 32)), "duration_ms": DURATION_MS,
            "normalize_stakes": True, "nodes": nodes, "links": links,
            "partitions": partitions, "actions": actions}


@settings(max_examples=55, deadline=None, derandomize=True, database=None)
@given(cfg=schedules())
def test_any_schedule_converges_and_replays(cfg):
    world = run_cfg(cfg)
    drain(world)
    nodes = world.nodes.values()
    assert len({node.chain.tip.h_blk for node in nodes}) == 1
    for node in nodes:
        assert replica_state(node.replica) \
            == replica_state(replay_blocks(node.chain.blocks)), node.name
    granted = [e["token"] for e in world.events
               if e["event"] == "request_state" and e["state"] == "GRANTED"
               and "token" in e]
    assert len(granted) == len(set(granted))
    behavior = {node["name"]: node["behavior"] for node in cfg["nodes"]}
    for e in world.events:
        if e["event"] in ("block_rejected", "peer_discouraged"):
            assert behavior[e["source"]] in BLOCK_FORGERS, e
