"""Properties of the scenario loader: no value of the wrong type gets
past it as anything but a ConfigError, and a config it accepts runs to the
end without the ledger refusing a registration the loader let through."""

import copy

from hypothesis import example, given, settings, strategies as st

from ctsim.scenario import ConfigError, ScenarioConfig, load_config
from ctsim.sim import World

# a config that uses every key the loader reads
VALID = {
    "seed": 3, "duration_ms": 4000, "normalize_stakes": False,
    "token_ttl_intervals": 10, "confirmation_timeout_intervals": 10,
    "auto_feedback": True,
    "consensus": {"block_interval_ms": 300, "slot_ms": 100, "k_bits": 64,
                  "time_cap_intervals": 64, "base_target": "auto"},
    "nodes": [{"name": "a", "stake": 0.6, "weights": [0.6, 0.4],
               "behavior": "honest"},
              {"name": "b", "stake": 0.4, "trust_override": 0}],
    "links": {"default_latency_ms": 20, "jitter_ms": 10,
              "overrides": [{"from": "a", "to": "b", "latency_ms": 5}]},
    "partitions": [{"at_ms": 1000, "groups": [["a"], ["b", "c"]]},
                   {"at_ms": 2000, "heal": True}],
    "actions": [
        {"at_ms": 0, "action": "register_csp", "name": "c", "stake": 0.2,
         "weights": [0.5, 0.5], "behavior": "smearer"},
        {"at_ms": 100, "action": "register_user", "user": "u", "home": "a"},
        {"at_ms": 200, "action": "request_access", "user": "u",
         "target": "b", "resource": "vm", "home": "a",
         "bad_credential": False},
        {"at_ms": 300, "action": "iaas_share", "borrower": "a",
         "lender": "c", "resource": "gpu"},
        {"at_ms": 900, "action": "feedback", "request": "req-1",
         "by": "home", "label": "SATISFIED"},
    ],
}


def _paths(value, path=()):
    """The path of every value inside value, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = list(_paths(VALID))

# values of every YAML type, including ones that pass as names, labels,
# request ids and the base-target keyword
WRONG = st.one_of(
    st.sampled_from([[], ["a"], [["a"]], [1], {}, {"a": 1}, True, False,
                     None, "", "a", "c", "auto", "0.5", "req-1", "GOOD"]),
    st.text(max_size=4), st.integers(-2, 2 ** 65), st.floats())


def test_the_base_config_is_valid():
    assert load_config(VALID).actions


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PATHS), WRONG)
def test_any_value_replaced_is_a_config_error_or_a_config(path, value):
    raw = copy.deepcopy(VALID)
    *parents, last = path
    owner = raw
    for key in parents:
        owner = owner[key]
    owner[last] = value
    try:
        assert isinstance(load_config(raw), ScenarioConfig)
    except ConfigError:
        pass


# weight pairs from the edges of the unit interval: one ulp, zero, a
# random weight (None) and one, the ulp-sized pairs first, so that pairs
# whose means floor to zero are drawn often
ULP = 1e-12
WEIGHTS = st.sampled_from([(ULP, 0), (0, ULP), (ULP, ULP), (0, 1.0),
                           (1.0, 0), (None, None), (1.0, 1.0)]).flatmap(
    lambda pair: st.tuples(*(st.floats(0.01, 0.99) if w is None
                             else st.just(w) for w in pair)).map(list))


@st.composite
def candidate_configs(draw):
    """2-4 providers, the first 1-3 on the roster and the rest
    registering late, weights at the edges, and one request."""
    count = draw(st.integers(2, 4))
    roster = draw(st.integers(1, count - 1))
    specs = [{"name": f"p{i}", "stake": draw(st.sampled_from([0.2, 0.5])),
              "weights": draw(WEIGHTS)} for i in range(count)]
    late = [{"at_ms": draw(st.integers(0, 8)) * 100,
             "action": "register_csp", **spec} for spec in specs[roster:]]
    return _with_request(draw(st.integers(0, 2 ** 16)), specs[:roster], late)


def _with_request(seed, nodes, late):
    """A config of nodes and late registrations in which a user of the
    first node asks the last provider for a resource once it is there."""
    last = (late or nodes)[-1]
    return {"seed": seed, "duration_ms": 4000, "normalize_stakes": True,
            "nodes": nodes, "actions": late + [
                {"at_ms": 100, "action": "register_user", "user": "u",
                 "home": nodes[0]["name"]},
                {"at_ms": max(a["at_ms"] for a in late) + 200,
                 "action": "request_access", "user": "u",
                 "target": last["name"], "resource": "vm"}]}


def _late(name, at_ms, weights):
    return {"at_ms": at_ms, "action": "register_csp", "name": name,
            "stake": 0.5, "weights": weights}


# each ran with a WEIGHT_MEAN_ZERO refusal once: b after the roster alone,
# and b on its own node, which starts from the genesis without a
ROSTER = [{"name": "p0", "stake": 1, "weights": [ULP, 0]}]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(candidate_configs())
@example(_with_request(5, ROSTER, [_late("b", 1000, [0, ULP])]))
@example(_with_request(5, ROSTER, [_late("a", 1000, [1.0, 0]),
                                   _late("b", 3000, [0, ULP])]))
def test_an_accepted_config_runs_without_a_refused_registration(raw):
    try:
        cfg = load_config(raw)
    except ConfigError:
        return
    world = World(cfg)
    world.run()
    refused = [e for e in world.events if e["event"] == "tx_rejected"
               and e["reason"] == "WEIGHT_MEAN_ZERO"]
    assert not refused
