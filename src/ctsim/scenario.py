"""Scenario configuration: YAML schema, validation, defaults.

A scenario file pins everything a run needs: the seed, consensus timing,
the node roster with stakes/weights/behaviors, link latencies, partition
windows, and a scripted action timeline. Validation is strict and names the
offending field; a config that parses is guaranteed internally consistent
before the world is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .fixedpoint import ONE, fp_from
from .ledger import ConsensusParams, RegisterData, params_fault
from .trust import CredLabel, SatLabel

LABEL_NAMES = {lbl.name: int(lbl) for lbl in (*CredLabel, *SatLabel)}

# libyaml's parser where PyYAML was built with it; it reads the same
# documents into the same objects, several times faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

BEHAVIORS = ("honest", "tamperer", "double_issuer", "smearer", "flatterer")
ACTION_KINDS = ("register_csp", "register_user", "request_access",
                "iaas_share", "feedback")


class ConfigError(Exception):
    """Invalid scenario config; message names the offending field."""


@dataclass
class NodeSpec:
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


@dataclass
class LinkCfg:
    default_latency_ms: int = 20
    jitter_ms: int = 10
    overrides: dict[tuple[str, str], int] = field(default_factory=dict)


@dataclass
class PartitionSpec:
    at_ms: int
    groups: list[frozenset[str]] | None   # None means heal


@dataclass
class ActionSpec:
    at_ms: int
    kind: str
    fields: dict
    req_id: str | None = None           # assigned to access-producing actions


@dataclass
class ScenarioConfig:
    seed: int
    duration_ms: int
    consensus: ConsensusParams          # base_target None: calibrate
    nodes: list[NodeSpec]
    links: LinkCfg
    partitions: list[PartitionSpec]
    actions: list[ActionSpec]
    token_ttl_intervals: int = 10
    confirmation_timeout_intervals: int = 10
    auto_feedback: bool = True


def _require(cond: bool, field_name: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {msg}")


def _as_fp_unit(value, field_name: str) -> int:
    try:
        fp = fp_from(value)
    except Exception:
        raise ConfigError(f"{field_name}: not a number") from None
    _require(0 <= fp <= ONE, field_name, "must lie in [0, 1]")
    return fp


def load_config(source) -> ScenarioConfig:
    """Parse and validate a scenario from a path or an already-loaded dict."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")

    _require("seed" in raw, "seed", "is mandatory")
    seed = raw["seed"]
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and 0 <= seed < 2 ** 64, "seed",
             "must be an integer in [0, 2^64)")
    duration = raw.get("duration_ms", 30000)
    _require(isinstance(duration, int) and duration > 0,
             "duration_ms", "must be a positive integer")

    cons = _parse_consensus(raw.get("consensus", {}))
    nodes = _parse_nodes(raw.get("nodes"), raw.get("normalize_stakes", False))
    names = {n.name for n in nodes}
    links = _parse_links(raw.get("links", {}), names)

    # actions may introduce nodes; collect those names before checking refs
    actions = _parse_actions(raw.get("actions", []), names)
    all_names = names | {a.fields["name"] for a in actions
                         if a.kind == "register_csp"}
    partitions = _parse_partitions(raw.get("partitions", []), all_names)

    ttl = raw.get("token_ttl_intervals", 10)
    _require(isinstance(ttl, int) and ttl > 0, "token_ttl_intervals",
             "must be a positive integer")
    timeout = raw.get("confirmation_timeout_intervals", 10)
    _require(isinstance(timeout, int) and timeout > 0,
             "confirmation_timeout_intervals", "must be a positive integer")
    auto_fb = raw.get("auto_feedback", True)
    _require(isinstance(auto_fb, bool), "auto_feedback", "must be a boolean")

    known = {"seed", "duration_ms", "consensus", "nodes", "links",
             "partitions", "actions", "token_ttl_intervals",
             "confirmation_timeout_intervals", "auto_feedback",
             "normalize_stakes"}
    for key in raw:
        _require(key in known, str(key), "unknown top-level key")

    return ScenarioConfig(seed=seed, duration_ms=duration, consensus=cons,
                          nodes=nodes, links=links, partitions=partitions,
                          actions=actions, token_ttl_intervals=ttl,
                          confirmation_timeout_intervals=timeout,
                          auto_feedback=auto_fb)


def _parse_consensus(raw) -> ConsensusParams:
    _require(isinstance(raw, dict), "consensus", "expected a mapping")
    packed = ("block_interval_ms", "slot_ms", "k_bits", "time_cap_intervals")
    for key in raw:
        _require(key in (*packed, "base_target"), f"consensus.{key}",
                 "unknown consensus key")
    base = raw.get("base_target", "auto")
    if base == "auto":
        base_fp = None
    else:
        base_fp = _as_fp_unit(base, "consensus.base_target")
    params = ConsensusParams(base_fp,
                             **{name: raw[name] for name in packed
                                if name in raw})
    for name in packed:
        _require(isinstance(getattr(params, name), int), f"consensus.{name}",
                 "must be an integer")
    fault = params_fault(params)
    if fault is not None:
        raise ConfigError(f"consensus.{fault[0]}: {fault[1]}")
    return params


def _parse_one_node(raw, where: str) -> NodeSpec:
    _require(isinstance(raw, dict), where, "expected a mapping")
    _require("name" in raw, f"{where}.name", "is mandatory")
    name = raw["name"]
    _require(isinstance(name, str) and name and ":" not in name,
             f"{where}.name", "must be a nonempty string without ':'")
    _require("stake" in raw, f"{where}.stake", "is mandatory")
    stake = _as_fp_unit(raw["stake"], f"{where}.stake")
    weights = raw.get("weights", [0.5, 0.5])
    _require(isinstance(weights, (list, tuple)) and len(weights) == 2,
             f"{where}.weights", "expected [satisfaction, authentication]")
    w_sat = _as_fp_unit(weights[0], f"{where}.weights[0]")
    w_auth = _as_fp_unit(weights[1], f"{where}.weights[1]")
    _require(w_sat + w_auth > 0, f"{where}.weights", "must not both be zero")
    behavior = raw.get("behavior", "honest")
    _require(behavior in BEHAVIORS, f"{where}.behavior",
             f"must be one of {', '.join(BEHAVIORS)}")
    override = raw.get("trust_override")
    if override is not None:
        override = _as_fp_unit(override, f"{where}.trust_override")
        # nonzero pins would make ledgers fail offline verification
        _require(override == 0, f"{where}.trust_override",
                 "only 0 is supported (consensus exclusion)")
    known = {"name", "stake", "weights", "behavior", "trust_override"}
    for key in raw:
        _require(key in known, f"{where}.{key}", "unknown node key")
    return NodeSpec(name, stake, w_sat, w_auth, behavior, override)


def _parse_nodes(raw, normalize: bool) -> list[NodeSpec]:
    _require(isinstance(raw, list) and len(raw) >= 1, "nodes",
             "at least one node is required")
    nodes = [_parse_one_node(n, f"nodes[{i}]") for i, n in enumerate(raw)]
    # the genesis registers the roster in order, and the ledger rejects a
    # REGISTER after which both floored mean weights are zero
    sums = [0, 0]
    for count, n in enumerate(nodes, 1):
        sums = [sums[0] + n.weight_sat, sums[1] + n.weight_auth]
        _require(max(sums) >= count, f"nodes[{count - 1}].weights",
                 "the mean weights of this node and those before it "
                 "round to zero")
    names = [n.name for n in nodes]
    _require(len(set(names)) == len(names), "nodes", "duplicate node name")
    total = sum(n.stake for n in nodes)
    if normalize:
        _require(total > 0, "nodes", "stakes sum to zero")
        scaled = [n.stake * ONE // total for n in nodes]
        scaled[0] += ONE - sum(scaled)  # remainder to the first node
        for n, s in zip(nodes, scaled):
            n.stake = s
    else:
        _require(total == ONE, "nodes",
                 "stakes must sum to 1 (or set normalize_stakes: true)")
    return nodes


def _parse_links(raw, names: set[str]) -> LinkCfg:
    _require(isinstance(raw, dict), "links", "expected a mapping")
    cfg = LinkCfg()
    default = raw.get("default_latency_ms", cfg.default_latency_ms)
    _require(isinstance(default, int) and default > 0,
             "links.default_latency_ms", "must be a positive integer")
    jitter = raw.get("jitter_ms", cfg.jitter_ms)
    _require(isinstance(jitter, int) and jitter >= 0,
             "links.jitter_ms", "must be a non-negative integer")
    overrides = {}
    for i, entry in enumerate(raw.get("overrides", [])):
        where = f"links.overrides[{i}]"
        _require(isinstance(entry, dict), where, "expected a mapping")
        src, dst = entry.get("from"), entry.get("to")
        _require(src in names, f"{where}.from", "unknown node")
        _require(dst in names, f"{where}.to", "unknown node")
        lat = entry.get("latency_ms")
        _require(isinstance(lat, int) and lat > 0, f"{where}.latency_ms",
                 "must be a positive integer")
        overrides[(src, dst)] = lat
    known = {"default_latency_ms", "jitter_ms", "overrides"}
    for key in raw:
        _require(key in known, f"links.{key}", "unknown link key")
    return LinkCfg(default, jitter, overrides)


def _parse_partitions(raw, names: set[str]) -> list[PartitionSpec]:
    _require(isinstance(raw, list), "partitions", "expected a list")
    out = []
    last_at = -1
    for i, entry in enumerate(raw):
        where = f"partitions[{i}]"
        _require(isinstance(entry, dict), where, "expected a mapping")
        at = entry.get("at_ms")
        _require(isinstance(at, int) and at >= 0, f"{where}.at_ms",
                 "must be a non-negative integer")
        _require(at >= last_at, f"{where}.at_ms", "must be non-decreasing")
        last_at = at
        if entry.get("heal"):
            out.append(PartitionSpec(at, None))
            continue
        groups_raw = entry.get("groups")
        _require(isinstance(groups_raw, list) and len(groups_raw) >= 2,
                 f"{where}.groups", "need at least two groups (or heal: true)")
        seen: set[str] = set()
        groups = []
        for g in groups_raw:
            _require(isinstance(g, list) and g, f"{where}.groups",
                     "each group is a nonempty list of node names")
            for member in g:
                _require(member in names, f"{where}.groups",
                         f"unknown node {member!r}")
                _require(member not in seen, f"{where}.groups",
                         f"node {member!r} appears in two groups")
                seen.add(member)
            groups.append(frozenset(g))
        out.append(PartitionSpec(at, groups))
    return out


def _parse_actions(raw, initial_names: set[str]) -> list[ActionSpec]:
    _require(isinstance(raw, list), "actions", "expected a list")
    out = []
    req_counter = 0
    known_csps = set(initial_names)
    for i, entry in enumerate(raw):
        where = f"actions[{i}]"
        _require(isinstance(entry, dict), where, "expected a mapping")
        at = entry.get("at_ms")
        _require(isinstance(at, int) and at >= 0, f"{where}.at_ms",
                 "must be a non-negative integer")
        kind = entry.get("action")
        _require(kind in ACTION_KINDS, f"{where}.action",
                 f"must be one of {', '.join(ACTION_KINDS)}")
        fields = {k: v for k, v in entry.items() if k not in ("at_ms", "action")}
        req_id = None
        if kind == "register_csp":
            spec = _parse_one_node(fields, where)
            _require(spec.name not in known_csps, f"{where}.name",
                     "provider name already used")
            known_csps.add(spec.name)
            fields = {"name": spec.name, "spec": spec}
        elif kind == "register_user":
            _require(isinstance(fields.get("user"), str) and fields.get("user"),
                     f"{where}.user", "is mandatory")
            _require(fields.get("home") in known_csps, f"{where}.home",
                     "unknown provider")
        elif kind == "request_access":
            _require(isinstance(fields.get("user"), str) and fields.get("user"),
                     f"{where}.user", "is mandatory")
            _require(fields.get("target") in known_csps, f"{where}.target",
                     "unknown provider")
            _require(isinstance(fields.get("resource"), str)
                     and fields.get("resource"), f"{where}.resource",
                     "is mandatory")
            if "home" in fields:
                _require(fields["home"] in known_csps, f"{where}.home",
                         "unknown provider")
            _require(isinstance(fields.get("bad_credential", False), bool),
                     f"{where}.bad_credential", "must be a boolean")
            req_counter += 1
            req_id = f"req-{req_counter}"
        elif kind == "iaas_share":
            _require(fields.get("borrower") in known_csps, f"{where}.borrower",
                     "unknown provider")
            _require(fields.get("lender") in known_csps, f"{where}.lender",
                     "unknown provider")
            _require(fields.get("borrower") != fields.get("lender"), where,
                     "borrower and lender must differ")
            _require(isinstance(fields.get("resource"), str)
                     and fields.get("resource"), f"{where}.resource",
                     "is mandatory")
            req_counter += 1
            req_id = f"req-{req_counter}"
        else:  # feedback
            ref = fields.get("request")
            _require(isinstance(ref, str) and ref.startswith("req-"),
                     f"{where}.request", "must reference a request id")
            _require(fields.get("by") in ("home", "foreign"), f"{where}.by",
                     "must be 'home' or 'foreign'")
            label = fields.get("label")
            _require(label in LABEL_NAMES, f"{where}.label",
                     f"must be one of {', '.join(sorted(LABEL_NAMES))}")
            by = fields["by"]
            # home rates on the satisfaction scale, foreign on credibility
            want_sat = by == "home"
            _require((LABEL_NAMES[label] >= 5) == want_sat, f"{where}.label",
                     "scale does not match the rating party")
        out.append(ActionSpec(at, kind, fields, req_id))
    out.sort(key=lambda a: a.at_ms)  # stable: ties keep listed order
    return out
