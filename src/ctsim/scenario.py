"""Scenario configuration: schema, validation, defaults.

A scenario pins everything a run needs: the seed, consensus timing, the
node roster with stakes/weights/behaviors, link latencies, partition
windows, and a scripted action timeline. The loader takes the file's
loaded mapping and reads each field with a typed reader, which checks the
value's type before it hashes, compares or sums it; every error names the
offending field, and a config that parses is internally consistent.
"""

from __future__ import annotations

from typing import NamedTuple

from .consensus import calibrate_base_target
from .fixedpoint import ONE, fp_from
from .ledger import ConsensusParams, RegisterData, params_fault, register_fault
from .trust import BOOTSTRAP_TRUST, CredLabel, SatLabel

LABEL_NAMES = {lbl.name: int(lbl) for lbl in (*CredLabel, *SatLabel)}

BEHAVIORS = ("honest", "tamperer", "double_issuer", "smearer", "flatterer")
NODE_KEYS = ("name", "stake", "weights", "behavior", "trust_override")
PACKED = ("block_interval_ms", "slot_ms", "k_bits", "time_cap_intervals")
# the keys of each action besides at_ms and action
ACTION_KEYS = {
    "register_csp": NODE_KEYS,
    "register_user": ("user", "home"),
    "request_access": ("user", "target", "resource", "home",
                       "bad_credential"),
    "iaas_share": ("borrower", "lender", "resource"),
    "feedback": ("request", "by", "label"),
}
# the action keys naming a provider, which must be registered by then
PROVIDER_KEYS = ("home", "target", "borrower", "lender")
MAX_NAME_LEN = 256      # a TOKEN payload holds two names: far below its cap
# what the loader says of the weights for each reason ledger.register_fault
# can give once the unit reader has held weights and stake to [0, 1]
REGISTER_FAULTS = {"WEIGHT_ZERO": "must not both be zero",
                   "WEIGHT_MEAN_ZERO": "the mean weights of this node and "
                                       "those before it round to zero"}


class ConfigError(Exception):
    """Invalid scenario config; message names the offending field."""


class NodeSpec(NamedTuple):
    name: str
    stake: int                          # fixed-point declared stake
    weight_sat: int
    weight_auth: int
    behavior: str = "honest"
    trust_override: int | None = None   # only 0 is allowed (exclusion switch)

    def register_data(self) -> RegisterData:
        """The REGISTER payload this provider announces itself with."""
        return RegisterData(self.weight_sat, self.weight_auth, self.stake,
                            pinned=self.trust_override is not None)


class LinkCfg(NamedTuple):
    default_latency_ms: int
    jitter_ms: int
    overrides: dict[tuple[str, str], int]


class PartitionSpec(NamedTuple):
    at_ms: int
    groups: list[frozenset[str]] | None   # None means heal


class ActionSpec(NamedTuple):
    at_ms: int
    kind: str
    fields: dict
    req_id: str | None = None           # assigned to access-producing actions


class ScenarioConfig(NamedTuple):
    seed: int
    duration_ms: int
    consensus: ConsensusParams
    nodes: list[NodeSpec]
    links: LinkCfg
    partitions: list[PartitionSpec]
    actions: list[ActionSpec]
    token_ttl_intervals: int = 10
    confirmation_timeout_intervals: int = 10
    auto_feedback: bool = True


# a config's keys: its own fields, and how to read the stakes
TOP_KEYS = (*ScenarioConfig._fields, "normalize_stakes")


def _fail(where: str, msg: str):
    raise ConfigError(f"{where}: {msg}")


def _is(typ: type, value, where: str):
    if not isinstance(value, typ):
        _fail(where, {dict: "expected a mapping", list: "expected a list",
                      bool: "must be a boolean"}[typ])
    return value


def _keys(raw: dict, known, prefix: str, noun: str) -> None:
    for key in raw:
        if key not in known:
            _fail(f"{prefix}{key}", f"unknown {noun} key")


def _need(raw: dict, key: str, prefix: str = ""):
    if key not in raw:
        _fail(f"{prefix}{key}", "is mandatory")
    return raw[key]


def _int(value, where: str, lo: int | None = 1, hi: int | None = None) -> int:
    """An integer in [lo, hi), either bound None for none; a bool is
    never a number."""
    if (type(value) is not int or (lo is not None and value < lo)
            or (hi is not None and value >= hi)):
        rule = {None: "an", 0: "a non-negative", 1: "a positive"}[lo]
        below = f" below 2^{hi.bit_length() - 1}" if hi else ""
        _fail(where, f"must be {rule} integer{below}")
    return value


def _unit(value, where: str) -> int:
    """A number in [0, 1], as fixed point."""
    if type(value) not in (int, float):
        _fail(where, "not a number")
    if not 0 <= value <= 1:
        _fail(where, "must lie in [0, 1]")
    return fp_from(value)


def _str(value, where: str) -> str:
    if not isinstance(value, str) or not 0 < len(value) <= MAX_NAME_LEN:
        _fail(where, f"must be a string of 1 to {MAX_NAME_LEN} characters")
    return value


def _one_of(value, where: str, choices, msg: str | None = None) -> str:
    if not isinstance(value, str) or value not in choices:
        _fail(where, msg or f"must be one of {', '.join(choices)}")
    return value


def _register(spec: NodeSpec, where: str, registered: list[RegisterData],
              first: int) -> None:
    """Append spec's REGISTER to registered, or refuse it as the ledger
    would on a node holding registered[:k], for any k from first on."""
    reg = spec.register_data()
    for k in range(first, len(registered) + 1):
        fault = register_fault(reg, registered[:k])
        if fault is not None:
            _fail(f"{where}.weights", REGISTER_FAULTS[fault])
    registered.append(reg)


def load_config(raw) -> ScenarioConfig:
    """Parse and validate a scenario from its loaded mapping."""
    _keys(_is(dict, raw, "top level"), TOP_KEYS, "", "top-level")
    seed = _int(_need(raw, "seed"), "seed", lo=0, hi=2 ** 64)
    duration = _int(raw.get("duration_ms", 30000), "duration_ms")
    nodes = _parse_nodes(raw.get("nodes"), _is(
        bool, raw.get("normalize_stakes", False), "normalize_stakes"))
    # the genesis registers the roster in listed order
    registered: list[RegisterData] = []
    for i, node in enumerate(nodes):
        _register(node, f"nodes[{i}]", registered, i)
    cons = _parse_consensus(raw.get("consensus", {}), nodes)
    roster = {n.name for n in nodes}
    links = _parse_links(raw.get("links", {}), roster)
    actions, names = _parse_actions(raw.get("actions", []), roster,
                                    registered)
    partitions = _parse_partitions(raw.get("partitions", []), names)
    ttl = _int(raw.get("token_ttl_intervals", 10), "token_ttl_intervals")
    timeout = _int(raw.get("confirmation_timeout_intervals", 10),
                   "confirmation_timeout_intervals")
    auto_fb = _is(bool, raw.get("auto_feedback", True), "auto_feedback")
    return ScenarioConfig(seed, duration, cons, nodes, links, partitions,
                          actions, ttl, timeout, auto_fb)


def _parse_consensus(raw, nodes: list[NodeSpec]) -> ConsensusParams:
    _keys(_is(dict, raw, "consensus"), (*PACKED, "base_target"),
          "consensus.", "consensus")
    base = raw.get("base_target", "auto")
    if base == "auto":
        # the genesis roster at bootstrap trust, a pinned provider at 0
        trusts = [BOOTSTRAP_TRUST if n.trust_override is None else 0
                  for n in nodes]
        try:
            base_fp = calibrate_base_target([n.stake for n in nodes], trusts)
        except ValueError:
            _fail("consensus.base_target", "auto needs a provider with "
                  "nonzero stake and no trust_override")
    else:
        base_fp = _unit(base, "consensus.base_target")
    params = ConsensusParams(base_fp, **{
        name: _int(raw[name], f"consensus.{name}", lo=None)
        for name in PACKED if name in raw})
    fault = params_fault(params)
    if fault is not None:
        _fail(f"consensus.{fault[0]}", fault[1])
    return params


def _parse_node(raw, where: str) -> NodeSpec:
    _keys(_is(dict, raw, where), NODE_KEYS, f"{where}.", "node")
    name = _str(raw.get("name"), f"{where}.name")
    if ":" in name:
        _fail(f"{where}.name", "must not contain ':'")
    stake = _unit(_need(raw, "stake", f"{where}."), f"{where}.stake")
    weights = raw.get("weights", [0.5, 0.5])
    if not isinstance(weights, list) or len(weights) != 2:
        _fail(f"{where}.weights", "expected [satisfaction, authentication]")
    w_sat = _unit(weights[0], f"{where}.weights[0]")
    w_auth = _unit(weights[1], f"{where}.weights[1]")
    behavior = _one_of(raw.get("behavior", "honest"), f"{where}.behavior",
                       BEHAVIORS)
    override = raw.get("trust_override")
    if override is not None:
        # nonzero pins would make ledgers fail offline verification
        if _unit(override, f"{where}.trust_override") != 0:
            _fail(f"{where}.trust_override",
                  "only 0 is supported (consensus exclusion)")
        override = 0
    return NodeSpec(name, stake, w_sat, w_auth, behavior, override)


def _parse_nodes(raw, normalize: bool) -> list[NodeSpec]:
    if not isinstance(raw, list) or not raw:
        _fail("nodes", "at least one node is required")
    nodes = [_parse_node(n, f"nodes[{i}]") for i, n in enumerate(raw)]
    names = [n.name for n in nodes]
    if len(set(names)) != len(names):
        _fail("nodes", "duplicate node name")
    total = sum(n.stake for n in nodes)
    if normalize:
        if total == 0:
            _fail("nodes", "stakes sum to zero")
        scaled = [n.stake * ONE // total for n in nodes]
        scaled[0] += ONE - sum(scaled)  # remainder to the first node
        nodes = [n._replace(stake=s) for n, s in zip(nodes, scaled)]
    elif total != ONE:
        _fail("nodes", "stakes must sum to 1 (or set normalize_stakes: true)")
    return nodes


def _parse_links(raw, names: set[str]) -> LinkCfg:
    _keys(_is(dict, raw, "links"),
          ("default_latency_ms", "jitter_ms", "overrides"), "links.", "link")
    overrides = {}
    for i, entry in enumerate(_is(list, raw.get("overrides", []),
                                  "links.overrides")):
        where = f"links.overrides[{i}]"
        src = _one_of(_is(dict, entry, where).get("from"), f"{where}.from",
                      names, "unknown node")
        dst = _one_of(entry.get("to"), f"{where}.to", names, "unknown node")
        overrides[(src, dst)] = _int(entry.get("latency_ms"),
                                     f"{where}.latency_ms")
    return LinkCfg(
        _int(raw.get("default_latency_ms", 20), "links.default_latency_ms"),
        _int(raw.get("jitter_ms", 10), "links.jitter_ms", lo=0),
        overrides)


def _parse_partitions(raw, names: set[str]) -> list[PartitionSpec]:
    out = []
    last_at = 0
    for i, entry in enumerate(_is(list, raw, "partitions")):
        where = f"partitions[{i}]"
        at = _int(_is(dict, entry, where).get("at_ms"), f"{where}.at_ms", lo=0)
        if at < last_at:
            _fail(f"{where}.at_ms", "must be non-decreasing")
        last_at = at
        if _is(bool, entry.get("heal", False), f"{where}.heal"):
            out.append(PartitionSpec(at, None))
            continue
        groups = entry.get("groups")
        if not isinstance(groups, list) or len(groups) < 2:
            _fail(f"{where}.groups", "need at least two groups (or heal: true)")
        seen: set[str] = set()
        for j, group in enumerate(groups):
            if not isinstance(group, list) or not group:
                _fail(f"{where}.groups",
                      "each group is a nonempty list of node names")
            for k, member in enumerate(group):
                _one_of(member, f"{where}.groups[{j}][{k}]", names,
                        "unknown node")
                if member in seen:
                    _fail(f"{where}.groups",
                          f"node {member!r} appears in two groups")
                seen.add(member)
        out.append(PartitionSpec(at, [frozenset(g) for g in groups]))
    return out


def _parse_actions(raw, roster: set[str], registered: list[RegisterData]
                   ) -> tuple[list[ActionSpec], set[str]]:
    """The actions in the order they run, by at_ms and then as listed,
    and every provider's name.
    A provider an action names must be registered before it runs. Each
    register_csp must pass the ledger's registration rule after the roster
    and any run-order prefix of the registrations before it: its own node
    starts from the genesis, and another node may not hold them all yet."""
    names = set(roster)
    listed = []     # (at_ms, listed position, action, provider references)
    requests = 0
    for i, entry in enumerate(_is(list, raw, "actions")):
        where = f"actions[{i}]"
        at = _int(_is(dict, entry, where).get("at_ms"), f"{where}.at_ms", lo=0)
        kind = _one_of(entry.get("action"), f"{where}.action",
                       tuple(ACTION_KEYS))
        fields = {k: v for k, v in entry.items() if k not in ("at_ms", "action")}
        known = ACTION_KEYS[kind]
        _keys(fields, known, f"{where}.", "action")
        for key in ("user", "resource", "request"):
            if key in known:
                _str(fields.get(key), f"{where}.{key}")
        _is(bool, fields.get("bad_credential", False),
            f"{where}.bad_credential")
        refs = {key: fields.get(key) for key in PROVIDER_KEYS if key in known}
        if kind == "request_access" and "home" not in fields:
            del refs["home"]    # optional: the user's first home serves
        if kind == "register_csp":
            spec = _parse_node(fields, where)
            if spec.name in names:
                _fail(f"{where}.name", "provider name already used")
            names.add(spec.name)
            fields = {"spec": spec}
        elif kind == "iaas_share" and refs["borrower"] == refs["lender"]:
            _fail(where, "borrower and lender must differ")
        elif kind == "feedback":
            if not fields["request"].startswith("req-"):
                _fail(f"{where}.request", "must reference a request id")
            by = _one_of(fields.get("by"), f"{where}.by", ("home", "foreign"))
            label = _one_of(fields.get("label"), f"{where}.label",
                            sorted(LABEL_NAMES))
            # home rates on the satisfaction scale, foreign on credibility
            if (LABEL_NAMES[label] >= 5) != (by == "home"):
                _fail(f"{where}.label", "scale does not match the rating party")
        req_id = None
        if kind in ("request_access", "iaas_share"):
            requests += 1
            req_id = f"req-{requests}"
        listed.append((at, i, ActionSpec(at, kind, fields, req_id), refs))
    listed.sort(key=lambda a: a[:2])    # run order
    born = set(roster)
    for _, i, action, refs in listed:
        for key, name in refs.items():
            where = f"actions[{i}].{key}"
            if _one_of(name, where, names, "unknown provider") not in born:
                _fail(where, "provider registers only after this action runs")
        if action.kind == "register_csp":
            spec = action.fields["spec"]
            _register(spec, f"actions[{i}]", registered, len(roster))
            born.add(spec.name)
    return [action for _, _, action, _ in listed], names
