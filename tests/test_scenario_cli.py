"""Config validation messages and the command-line round trip."""

import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest
import yaml

from ctsim import cli, consensus, ledger
from ctsim.cli import main
from ctsim.crypto import DetRng, generate_keypair
from ctsim.fixedpoint import ONE, fp_from
from ctsim.ledger import (
    Block, BlockHeader, RegisterData, build_register_tx, compute_tx_root,
    genesis_prf, make_genesis, read_ledger, write_ledger,
)
from ctsim.replica import replay_blocks
from ctsim.scenario import MAX_NAME_LEN, ConfigError, load_config
from ctsim.trust import BOOTSTRAP_TRUST

from conftest import (
    base_cfg, four_nodes, make_world, perfbench_module, run_cfg,
)


def bad(cfg, needle):
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert needle in str(err.value), str(err.value)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Validation names the offending field
# ---------------------------------------------------------------------------

def test_seed_is_mandatory_and_bounded():
    cfg = base_cfg()
    del cfg["seed"]
    bad(cfg, "seed: is mandatory")
    bad(base_cfg(seed=-1), "seed")
    bad(base_cfg(seed=2 ** 64), "seed")
    bad(base_cfg(seed=True), "seed")
    bad(base_cfg(seed="7"), "seed")


def test_stakes_must_cover_the_pie():
    nodes = four_nodes()
    nodes[0]["stake"] = 0.5
    bad(base_cfg(nodes=nodes), "stakes must sum to 1")
    cfg = base_cfg(nodes=nodes, normalize_stakes=True)
    parsed = load_config(cfg)
    assert sum(n.stake for n in parsed.nodes) == ONE
    bad(base_cfg(nodes=[{"name": "a", "stake": 0}], normalize_stakes=True),
        "nodes: stakes sum to zero")


def test_normalization_puts_remainder_first():
    nodes = [{"name": c, "stake": 1} for c in ("a", "b", "c")]
    parsed = load_config(base_cfg(nodes=nodes, normalize_stakes=True))
    third = ONE // 3
    assert [n.stake for n in parsed.nodes] == [third + 1, third, third]


def test_unknown_keys_are_refused():
    bad(base_cfg(bogus=1), "bogus: unknown top-level key")
    nodes = four_nodes()
    nodes[0]["colour"] = "red"
    bad(base_cfg(nodes=nodes), "nodes[0].colour: unknown node key")
    bad(base_cfg(links={"latency": 5}), "links.latency: unknown link key")


def test_node_spec_validation():
    nodes = four_nodes()
    nodes[0]["name"] = "al:pha"
    bad(base_cfg(nodes=nodes), "nodes[0].name")
    nodes = four_nodes()
    nodes[1]["name"] = "alpha"
    bad(base_cfg(nodes=nodes), "duplicate node name")
    nodes = four_nodes()
    nodes[0]["weights"] = [1.2, 0.3]
    bad(base_cfg(nodes=nodes), "nodes[0].weights[0]: must lie in [0, 1]")
    nodes = four_nodes()
    nodes[0]["weights"] = [0, 0]
    bad(base_cfg(nodes=nodes), "must not both be zero")
    nodes = four_nodes()
    nodes[0]["behavior"] = "saboteur"
    bad(base_cfg(nodes=nodes), "nodes[0].behavior: must be one of")
    nodes = four_nodes()
    nodes[0]["trust_override"] = 0.5
    bad(base_cfg(nodes=nodes), "only 0 is supported")
    nodes = four_nodes()
    nodes[0]["stake"] = "lots"
    bad(base_cfg(nodes=nodes), "nodes[0].stake: not a number")


def test_consensus_validation():
    bad(base_cfg(consensus={"slot_ms": 400}), "consensus.slot_ms")
    bad(base_cfg(consensus={"k_bits": 96}), "must be 64 or 128")
    bad(base_cfg(consensus={"base_target": 0}), "consensus.base_target")
    bad(base_cfg(consensus={"base_target": 1.5}), "consensus.base_target")
    bad(base_cfg(consensus={"slot": 50}),
        "consensus.slot: unknown consensus key")


def test_partition_validation():
    bad(base_cfg(partitions=[{"at_ms": 0, "groups": [["alpha", "beta"]]}]),
        "need at least two groups")
    bad(base_cfg(partitions=[{"at_ms": 0,
                              "groups": [["alpha", "beta"],
                                         ["beta", "gamma"]]}]),
        "appears in two groups")
    bad(base_cfg(partitions=[{"at_ms": 0,
                              "groups": [["alpha"], ["nottheir"]]}]),
        "unknown node")
    bad(base_cfg(partitions=[{"at_ms": 500, "heal": True},
                             {"at_ms": 100, "heal": True}]),
        "must be non-decreasing")


def test_action_validation():
    bad(base_cfg(actions=[{"at_ms": 0, "action": "conjure"}]),
        "actions[0].action")
    bad(base_cfg(actions=[{"at_ms": 0, "action": "request_access",
                           "user": "u", "target": "nowhere",
                           "resource": "r"}]),
        "unknown provider")
    bad(base_cfg(actions=[{"at_ms": 0, "action": "register_user",
                           "user": "u", "home": ["alpha"]}]),
        "actions[0].home: unknown provider")
    bad(base_cfg(actions=[{"at_ms": 0, "action": "feedback",
                           "request": "req-1", "by": "home",
                           "label": "GOOD"}]),
        "scale does not match the rating party")
    bad(base_cfg(actions=[{"at_ms": 0, "action": "feedback",
                           "request": "req-1", "by": "foreign",
                           "label": "SATISFIED"}]),
        "scale does not match the rating party")
    bad(base_cfg(actions=[{"at_ms": 0, "action": "iaas_share",
                           "borrower": "alpha", "lender": "alpha",
                           "resource": "r"}]),
        "must differ")
    bad(base_cfg(actions=[{"at_ms": 0, "action": "register_csp",
                           "name": "alpha", "stake": 0.1}]),
        "actions[0].name: provider name already used")


def _run_exits_2(raw, tmp_path, field):
    """ctsim run refuses raw with one config error line naming field."""
    path = tmp_path / "cfg.yaml"
    path.write_text(raw if isinstance(raw, str) else yaml.safe_dump(raw))
    out_dir = tmp_path / "out"
    code, out, err = run_cli("run", str(path), "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_top_level_that_is_not_a_mapping_exits_2(tmp_path):
    _run_exits_2("- seed: 1\n", tmp_path, "top level")


LATE_CSP = {"at_ms": 2000, "action": "register_csp", "name": "c",
            "stake": 0.2}


@pytest.mark.parametrize("action, field", [
    ({"action": "register_user", "user": "u1", "home": "c"}, "home"),
    ({"action": "request_access", "user": "u1", "target": "c",
      "resource": "r"}, "target"),
    ({"action": "request_access", "user": "u1", "target": "a",
      "resource": "r", "home": "c"}, "home"),
    ({"action": "iaas_share", "borrower": "a", "lender": "c",
      "resource": "r"}, "lender"),
    ({"action": "iaas_share", "borrower": "c", "lender": "a",
      "resource": "r"}, "borrower"),
], ids=["user-home", "request-target", "request-home", "share-lender",
        "share-borrower"])
def test_action_naming_a_provider_before_it_registers_exits_2(
        action, field, tmp_path):
    # listed after the registration, but due before it runs
    nodes = [{"name": "a", "stake": 0.5}, {"name": "b", "stake": 0.5}]
    raw = base_cfg(nodes=nodes, duration_ms=3000,
                   actions=[LATE_CSP, {"at_ms": 500, **action}])
    _run_exits_2(raw, tmp_path, f"actions[1].{field}")
    # due at the same time, it still runs after the registration
    raw["actions"][1]["at_ms"] = 2000
    load_config(raw)
    # due after it, it may be listed before it, and it runs
    raw["actions"] = [{"at_ms": 2500, **action}, LATE_CSP]
    assert [a.kind for a in load_config(raw).actions] \
        == ["register_csp", action["action"]]
    run_cfg(raw)


def test_request_ids_follow_listed_order():
    actions = [{"at_ms": at, "action": "request_access", "user": "u",
                "target": "alpha", "resource": "r"} for at in (900, 100)]
    parsed = load_config(base_cfg(actions=actions))
    assert [(a.at_ms, a.req_id) for a in parsed.actions] \
        == [(100, "req-2"), (900, "req-1")]


def test_roster_that_cannot_generate_exits_2(tmp_path):
    nodes = [{"name": n, "stake": 0.5, "trust_override": 0} for n in "ab"]
    _run_exits_2(base_cfg(nodes=nodes), tmp_path, "consensus.base_target")
    # a fixed base target needs no calibration: the run just makes no blocks
    load_config(base_cfg(nodes=nodes, consensus={"base_target": 0.5}))


# ---------------------------------------------------------------------------
# Command-line round trip
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    cfg = base_cfg(
        seed=5, duration_ms=9000,
        actions=[
            {"at_ms": 500, "action": "register_user",
             "user": "wanderer", "home": "alpha"},
            {"at_ms": 1500, "action": "request_access", "user": "wanderer",
             "target": "beta", "resource": "vm-small"},
        ])
    path = tmp_path_factory.mktemp("scn") / "flow.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture(scope="module")
def run_dir(scenario_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code, stdout, _ = run_cli("run", str(scenario_file),
                              "--out-dir", str(out))
    assert code == 0, stdout
    return out


PINNED_CFG = {
    "seed": 5, "duration_ms": 8000,
    "nodes": [{"name": "a", "stake": 0.4}, {"name": "b", "stake": 0.3},
              {"name": "c", "stake": 0.3, "trust_override": 0}],
    "actions": [
        {"at_ms": 300, "action": "register_user", "user": "u1", "home": "a"},
        {"at_ms": 400, "action": "register_user", "user": "u2", "home": "c"},
        {"at_ms": 1000, "action": "request_access", "user": "u1",
         "target": "b", "resource": "vm"},
        {"at_ms": 1500, "action": "request_access", "user": "u2",
         "target": "a", "resource": "vm"},
    ]}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """A run in which provider c is pinned to zero trust."""
    out = tmp_path_factory.mktemp("pinned")
    path = out / "pinned.yaml"
    path.write_text(yaml.safe_dump(PINNED_CFG))
    code, stdout, _ = run_cli("run", str(path), "--out-dir", str(out))
    assert code == 0, stdout
    return out


def test_run_produces_artifacts(run_dir):
    for name in ("ledger.bin", "events.jsonl", "report.json"):
        assert (run_dir / name).stat().st_size > 0
    report = json.loads((run_dir / "report.json").read_text())
    assert report["requests"]["by_state"].get("GRANTED", 0) >= 1
    assert report["chain"]["height"] > 0


def test_run_is_reproducible(scenario_file, run_dir, tmp_path):
    code, _, _ = run_cli("run", str(scenario_file),
                         "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("ledger.bin", "events.jsonl", "report.json"):
        assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes()


def test_seed_override_changes_the_run(scenario_file, run_dir, tmp_path):
    code, _, _ = run_cli("run", str(scenario_file), "--out-dir",
                         str(tmp_path), "--seed-override", "99")
    assert code == 0
    assert (tmp_path / "ledger.bin").read_bytes() \
        != (run_dir / "ledger.bin").read_bytes()

    code, _, err = run_cli("run", str(scenario_file), "--out-dir",
                           str(tmp_path / "x"), "--seed-override", "-1")
    assert code == 2
    assert "seed override" in err


# sha256 of each artifact of the bundled scenarios. Any change to consensus,
# validation, fork handling or event logging that moves one byte shows here.
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
PINNED = {
    "demo": {
        "ledger.bin": "f27fa67789156ee52825a129b91b643941c60e1a9f20bf00cb37b2a692ebca9d",
        "events.jsonl": "d59f9619ac2fad70159fa03b4de6a7acc0baca10680db7989a0ddb71142e2ff4",
        "report.json": "5abc69d1cb30a46d9ee90497860f500c689a9b6112477e6134be973fc652d8d7",
    },
    "partition": {
        "ledger.bin": "7fae73b30bc2c6da9bccd6bca167478e4d7a297975a6eec12ebc8cf139b0735e",
        "events.jsonl": "cce514e04196ac11c24adf639dfb99fe56b00c578548382b531900f91946a989",
        "report.json": "b23846b27e306a498685b22cb1fe7761e6a49317705678fbe6c21f01a17c9b19",
    },
    "adversaries": {
        "ledger.bin": "04a29afa9c7088636068028dde6e0d5c925be3804abb69d25e2712f0e6c69f73",
        "events.jsonl": "6a14b9fed676fda06858f42f33100e0e689158cd8bf439fdb1b11a29772e1bcb",
        "report.json": "fb649c1c31c240d289ca741a2fbff63eca9999baf30fba3c10db866e2e2eec10",
    },
}


SRC = SCENARIOS.parent / "src"


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory) -> dict[str, pathlib.Path]:
    """The artifact directory of each bundled scenario, run by the CLI."""
    runs = {}
    for name in sorted(PINNED):
        out = runs[name] = tmp_path_factory.mktemp(name)
        code, stdout, _ = run_cli("run", str(SCENARIOS / f"{name}.yaml"),
                                  "--out-dir", str(out))
        assert code == 0, stdout
    return runs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_scenario_artifacts_are_pinned(name, bundled_runs):
    got = {art: hashlib.sha256((bundled_runs[name] / art).read_bytes())
           .hexdigest() for art in PINNED[name]}
    assert got == PINNED[name]


def _src_env(**extra) -> dict[str, str]:
    """This environment, with the checkout's src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("flags, hashseed", [([], "0"), ([], "1"),
                                             (["-O"], "0")],
                         ids=["hashseed-0", "hashseed-1", "optimized"])
def test_demo_artifacts_are_pinned_in_a_fresh_process(flags, hashseed,
                                                      tmp_path):
    env = _src_env(PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, *flags, "-m", "ctsim.cli", "run",
         str(SCENARIOS / "demo.yaml"), "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = {art: hashlib.sha256((tmp_path / art).read_bytes()).hexdigest()
           for art in PINNED["demo"]}
    assert got == PINNED["demo"]


def test_invalid_config_exits_2(tmp_path):
    nodes = four_nodes()
    nodes[0]["stake"] = 0.9
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(base_cfg(nodes=nodes)))
    code, _, err = run_cli("run", str(path), "--out-dir", str(tmp_path))
    assert code == 2
    assert "config error" in err and "stakes must sum to 1" in err

    code, _, err = run_cli("run", str(tmp_path / "absent.yaml"),
                           "--out-dir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("key, value", [
    ("time_cap_intervals", 70000), ("block_interval_ms", 4294967296),
    ("k_bits", 64.0)])
def test_genesis_parameters_too_wide_to_pack_exit_2(key, value, tmp_path):
    # each passed the loader once and raised from the genesis packing
    raw = yaml.safe_load((SCENARIOS / "demo.yaml").read_text())
    raw["consensus"][key] = value
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(raw))
    out_dir = tmp_path / "out"
    code, out, err = run_cli("run", str(path), "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: consensus.{key}: ")
    assert err.count("\n") == 1
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_config_and_genesis_share_the_parameter_ranges():
    # the widest values a config may give are the widest a genesis packs
    widest = {"block_interval_ms": 2 ** 32 - 1, "slot_ms": 2 ** 32 - 1,
              "k_bits": 128, "time_cap_intervals": 2 ** 16 - 1,
              "base_target": 0.5}
    params = load_config(base_cfg(consensus=widest)).consensus
    genesis = make_genesis([], **vars(params))
    assert ledger.genesis_params(genesis.header) == params
    for key in ("block_interval_ms", "time_cap_intervals"):
        bad(base_cfg(consensus={**widest, key: widest[key] + 1}),
            f"consensus.{key}: must be a positive integer below 2^")


# two registrants whose weights floor to zero means: trust has no weights
TINY_WEIGHTS = ([1e-12, 0], [0, 1e-12])


def test_weights_whose_means_floor_to_zero_exit_2(tmp_path):
    nodes = [{"name": name, "stake": 0.5, "weights": list(w)}
             for name, w in zip(("a", "b"), TINY_WEIGHTS)]
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(base_cfg(nodes=nodes, duration_ms=8000)))
    code, _, err = run_cli("run", str(path), "--out-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("config error: nodes[1].weights: the mean weights")
    assert not list(tmp_path.glob("*.bin"))


TWO = [{"name": "a", "stake": 0.5}, {"name": "b", "stake": 0.5}]


@pytest.mark.parametrize("overrides, field", [
    ({"actions": [{"at_ms": 500, "action": "request_access", "user": "u",
                   "target": "b", "resource": "r"},
                  {"at_ms": 900, "action": "feedback", "request": "req-1",
                   "by": "home", "label": ["SATISFIED"]}]},
     "actions[1].label"),
    ({"links": {"overrides": [{"from": ["a"], "to": "b", "latency_ms": 5}]}},
     "links.overrides[0].from"),
    ({"links": {"overrides": [{"from": "a", "to": ["b"], "latency_ms": 5}]}},
     "links.overrides[0].to"),
    ({"partitions": [{"at_ms": 100, "groups": [[["a"]], ["b"]]}]},
     "partitions[0].groups[0][0]"),
    ({"duration_ms": True}, "duration_ms"),
    ({"partitions": [{"at_ms": 100, "heal": [1]}]}, "partitions[0].heal"),
    ({"nodes": [{"name": "a", "stake": True}]}, "nodes[0].stake"),
    # the ledger would refuse b's REGISTER as WEIGHT_MEAN_ZERO, and b
    # would run unregistered
    ({"nodes": [{"name": "a", "stake": 1, "weights": TINY_WEIGHTS[0]}],
      "actions": [{"at_ms": 1000, "action": "register_csp", "name": "b",
                   "stake": 0.5, "weights": TINY_WEIGHTS[1]}]},
     "actions[0].weights"),
    # a TOKEN payload carries the user's name: at 1 MiB, the run granted
    # the request and then could not parse its own ledger
    ({"actions": [{"at_ms": 500, "action": "register_user",
                   "user": "u" * (1 << 20), "home": "a"}]},
     "actions[0].user"),
    ({"nodes": [{"name": "a" * (MAX_NAME_LEN + 1), "stake": 1}]},
     "nodes[0].name"),
], ids=["list-label", "list-from", "list-to", "list-member",
        "bool-duration", "list-heal", "bool-stake", "late-mean-zero",
        "long-user", "long-provider"])
def test_values_the_loader_once_took_exit_2(overrides, field, tmp_path):
    raw = {**base_cfg(nodes=TWO, duration_ms=8000), **overrides}
    _run_exits_2(raw, tmp_path, field)


def test_the_longest_names_keep_the_ledger_verifiable(tmp_path):
    # each char of these names takes 12 bytes in the JSON profile
    home, user = "\U0001F600" * MAX_NAME_LEN, "\U0001F601" * MAX_NAME_LEN
    raw = base_cfg(
        nodes=[{"name": home, "stake": 0.5}, {"name": "b", "stake": 0.5}],
        duration_ms=6000,
        actions=[{"at_ms": 500, "action": "register_user", "user": user,
                  "home": home},
                 {"at_ms": 1000, "action": "request_access", "user": user,
                  "target": "b", "resource": "r"}])
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, _, err = run_cli("run", str(path), "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    blocks = read_ledger(tmp_path / "ledger.bin")
    assert [tx.kind for blk in blocks for tx in blk.txs].count(
        ledger.TxKind.TOKEN) == 1
    assert run_cli("verify", str(tmp_path / "ledger.bin"))[0] == 0


def test_genesis_whose_mean_weights_floor_to_zero_fails(tmp_path):
    regs = [build_register_tx(generate_keypair(DetRng(i).take(32)),
                              RegisterData(fp_from(w_sat), fp_from(w_auth),
                                           ONE // 2))
            for i, (w_sat, w_auth) in enumerate(TINY_WEIGHTS)]
    path = tmp_path / "ledger.bin"
    write_ledger(path, [make_genesis(regs, fp_from("0.2"))])
    line = f"FAIL height=0 txid={regs[1].txid.hex()} reason=WEIGHT_MEAN_ZERO\n"
    assert run_cli("verify", str(path)) == (1, line, "")
    assert run_cli("trust-report", str(path)) == (1, line, "")


def _genesis_with(base_target=fp_from("0.2"), regs=None, spare=b"",
                  **params) -> Block:
    """A genesis whose prf is sealed over whatever parameters it carries;
    spare overwrites the tail of the packed parameter bytes."""
    if regs is None:
        regs = [build_register_tx(generate_keypair(DetRng(5).take(32)),
                                  RegisterData(ONE // 2, ONE // 2, ONE))]
    genesis = make_genesis(regs, base_target, **params)
    pub = genesis.header.generator_pub
    header = replace(genesis.header,
                     generator_pub=pub[:len(pub) - len(spare)] + spare)
    return Block(replace(header, prf=genesis_prf(header)), genesis.txs)


# a REGISTER the ledger refuses as WEIGHT_ZERO
IDLE_REG = build_register_tx(generate_keypair(DetRng(6).take(32)),
                             RegisterData(0, 0, ONE))


@pytest.mark.parametrize("genesis", [
    _genesis_with(base_target=0),
    _genesis_with(base_target=ONE),
    _genesis_with(k_bits=96),
    _genesis_with(block_interval_ms=300, slot_ms=301),
    _genesis_with(spare=b"\x01"),
    # the parameters are judged before the registrations
    _genesis_with(base_target=0, regs=[IDLE_REG]),
], ids=["base-target-zero", "base-target-one", "k-bits-96",
        "slot-above-interval", "spare-pub-bytes",
        "base-target-zero-and-weight-zero"])
def test_genesis_parameters_out_of_range_fail(genesis, tmp_path):
    path = tmp_path / "ledger.bin"
    write_ledger(path, [genesis])
    line = "FAIL height=0 txid=- reason=BAD_SIGNATURE\n"
    assert run_cli("verify", str(path)) == (1, line, "")
    assert run_cli("trust-report", str(path), "--json") == (1, line, "")


@pytest.mark.parametrize("text", ["seed: 1\nnodes: [a, b\n",
                                  "seed: 1\nnodes:\n\t- name: a\n"],
                         ids=["unclosed-list", "tab-indent"])
def test_malformed_yaml_exits_2(text, tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    code, _, err = run_cli("run", str(path), "--out-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("cannot load config: ")


def test_libyaml_and_pure_loaders_agree(tmp_path):
    # read_config takes libyaml's loader where PyYAML was built with it
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    crowd = tmp_path / "crowd.yaml"
    crowd.write_text(perfbench_module("workloads").scenario_yaml("crowd", 1))
    paths = [SCENARIOS / f"{name}.yaml" for name in sorted(PINNED)] + [crowd]
    for path in paths:
        text = path.read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert yaml.load(text, Loader=yaml.SafeLoader) == fast, path.name
        assert cli.read_config(path) == fast, path.name


# ---------------------------------------------------------------------------
# PyYAML loads at first use, and nothing loads cryptography
# ---------------------------------------------------------------------------

def test_cli_and_sim_load_no_third_party_package():
    # PyYAML loads in read_config, so verify and trust-report, which never
    # call it, load it not; nothing in ctsim imports cryptography
    probe = ("import sys, ctsim.cli, ctsim.sim; "
             "print(sorted({'cryptography', 'yaml'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_run_without_pyyaml_exits_2_with_one_line(monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "yaml", None)
    out = tmp_path / "out"
    code, stdout, err = run_cli("run", str(SCENARIOS / "demo.yaml"),
                                "--out-dir", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("cannot load config: ") and err.count("\n") == 1
    assert not out.exists()


def test_run_without_cryptography_writes_the_pinned_artifacts(
        monkeypatch, tmp_path):
    # Enc(U) is sealed by ctsim._aesgcm; any import of cryptography, or of
    # a submodule the tests loaded already, would raise ImportError here
    for name in [m for m in sys.modules if m.startswith("cryptography.")]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "cryptography", None)
    code, _, err = run_cli("run", str(SCENARIOS / "demo.yaml"),
                           "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    got = {art: hashlib.sha256((tmp_path / art).read_bytes()).hexdigest()
           for art in PINNED["demo"]}
    assert got == PINNED["demo"]


def test_run_frees_the_world_before_building_the_report(monkeypatch,
                                                       tmp_path):
    # only the artifacts outlive the World, so the report's replay runs
    # with every replica and event freed, by reference counts alone
    worlds, alive = [], []
    build_report = cli.build_report

    class Recorded(cli.World):
        def __init__(self, cfg):
            super().__init__(cfg)
            worlds.append(weakref.ref(self))

    def recording_build_report(*args):
        alive.extend(world() is not None for world in worlds)
        return build_report(*args)
    monkeypatch.setattr(cli, "World", Recorded)
    monkeypatch.setattr(cli, "build_report", recording_build_report)
    gc.disable()
    try:
        code, _, err = run_cli("run", str(SCENARIOS / "demo.yaml"),
                               "--out-dir", str(tmp_path))
    finally:
        gc.enable()
    assert (code, err, alive) == (0, "", [False])


# Run by each other interpreter: verify each ledger through cli.main and,
# where PyYAML is missing, run a scenario once; print the results as JSON.
OTHER_INTERPRETER_SCRIPT = """
import contextlib, importlib.util, io, json, sys
src, scenario, out_dir, *ledgers = sys.argv[1:]
sys.path.insert(0, src)
from ctsim.cli import main

def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]

result = {"verify": [call("verify", path) for path in ledgers]}
if importlib.util.find_spec("yaml") is None:
    result["run"] = call("run", scenario, "--out-dir", out_dir)
json.dump(result, sys.stdout)
"""

# prints an interpreter's version, then the path its executable resolves to
VERSION_PROBE = ("import os, sys; print('%d.%d' % sys.version_info[:2]); "
                 "print(os.path.realpath(sys.executable))")


def _other_interpreters() -> list[str]:
    """Each Python 3.10 or later other than this one: the python3.N
    commands on PATH, and the sibling versions of a pyenv install."""
    candidates = [shutil.which(f"python3.{n}") for n in range(10, 14)]
    versions = pathlib.Path(sys.base_prefix).parent
    if versions.name == "versions":
        candidates += [str(d / "bin" / "python")
                       for d in sorted(versions.iterdir())]
    found = set()
    for exe in filter(None, candidates):
        try:
            done = subprocess.run([exe, "-E", "-S", "-c", VERSION_PROBE],
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            continue
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2:
            major, minor = map(int, lines[0].split("."))
            if (major, minor) >= (3, 10):
                found.add(lines[1])
    found.discard(os.path.realpath(sys.executable))
    return sorted(found)


def test_other_interpreters_verify_as_this_one(bundled_runs, tmp_path):
    # the verifier imports only the stdlib, so an interpreter with nothing
    # installed replays each ledger to the same line and exit code
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10+ on PATH or beside this one")
    ledgers = []
    for name, run in sorted(bundled_runs.items()):
        raw = (run / "ledger.bin").read_bytes()
        ledgers.append(run / "ledger.bin")
        for at in (len(raw) // 3, len(raw) // 2):
            flipped = bytearray(raw)
            flipped[at] ^= 0x01
            ledgers.append(tmp_path / f"{name}-{at}.bin")
            ledgers[-1].write_bytes(bytes(flipped))
    paths = list(map(str, ledgers))
    outs = [tmp_path / f"out-{i}" for i in range(len(interpreters))]
    children = [subprocess.Popen(
        [exe, "-I", "-B", "-c", OTHER_INTERPRETER_SCRIPT, str(SRC),
         str(SCENARIOS / "demo.yaml"), str(out), *paths],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for exe, out in zip(interpreters, outs)]
    expected = [list(run_cli("verify", str(path))) for path in ledgers]
    assert [code for code, _, _ in expected] == [0, 1, 1] * 3
    for exe, child, out in zip(interpreters, children, outs):
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, (exe, stderr)
        result = json.loads(stdout)
        assert result["verify"] == expected, exe
        if "run" in result:
            assert result["run"] == [
                2, "", "cannot load config: No module named 'yaml'\n"], exe
            assert not out.exists()


# Run by each other interpreter: run each bundled scenario from its mapping,
# parsed here and passed as JSON, through cli.run_config, as cmd_run does;
# print each exit code and artifact digests, then any cryptography loaded.
OTHER_INTERPRETER_RUN_SCRIPT = """
import contextlib, hashlib, io, json, os, sys
src, out_root, configs = sys.argv[1:]
sys.path.insert(0, src)
from ctsim.cli import run_config

result = {}
for name, raw in json.loads(configs).items():
    out_dir = os.path.join(out_root, name)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_config(raw, out_dir)
    digests = {}
    for art in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, art), "rb") as fh:
            digests[art] = hashlib.sha256(fh.read()).hexdigest()
    result[name] = [code, digests]
result["cryptography"] = sorted(
    m for m in sys.modules if m.split(".")[0] == "cryptography")
json.dump(result, sys.stdout)
"""


def test_other_interpreters_run_to_the_pinned_digests(tmp_path):
    # the determinism contract holds on every interpreter found: the same
    # configs give the same artifact bytes, and no run loads cryptography
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other Python 3.10+ on PATH or beside this one")
    configs = json.dumps({name: cli.read_config(SCENARIOS / f"{name}.yaml")
                          for name in sorted(PINNED)})
    children = [subprocess.Popen(
        [exe, "-I", "-B", "-c", OTHER_INTERPRETER_RUN_SCRIPT, str(SRC),
         str(tmp_path / f"out-{i}"), configs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for i, exe in enumerate(interpreters)]
    expected = {name: [0, digests] for name, digests in PINNED.items()}
    for exe, child in zip(interpreters, children):
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, (exe, stderr)
        assert json.loads(stdout) == {**expected, "cryptography": []}, exe


def test_verify_accepts_and_reports(run_dir):
    code, out, _ = run_cli("verify", str(run_dir / "ledger.bin"))
    assert code == 0
    assert out.startswith("OK height=")
    assert "tip=" in out


def test_verify_catches_a_flipped_byte(run_dir, tmp_path):
    raw = bytearray((run_dir / "ledger.bin").read_bytes())
    raw[len(raw) // 2] ^= 0x01
    mangled = tmp_path / "mangled.bin"
    mangled.write_bytes(bytes(raw))
    code, out, _ = run_cli("verify", str(mangled))
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_catches_truncation(run_dir, tmp_path):
    raw = (run_dir / "ledger.bin").read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(raw[:-7])
    code, out, _ = run_cli("verify", str(clipped))
    assert code == 1
    assert out.startswith("FAIL malformed ledger")

    code, _, err = run_cli("verify", str(tmp_path / "ghost.bin"))
    assert code == 2
    assert "cannot read" in err


def test_verify_refuses_the_previous_ledger_format(run_dir, tmp_path):
    # CTSIM1 transactions carried inputs, outputs and prev_tx; one format
    # parses, so the magic alone refuses such a file
    raw = (run_dir / "ledger.bin").read_bytes()
    assert raw.startswith(b"CTSIM2\n")
    old = tmp_path / "old.bin"
    old.write_bytes(b"CTSIM1\n" + raw[7:])
    code, out, _ = run_cli("verify", str(old))
    assert (code, out) == (1, "FAIL malformed ledger: BAD_ENCODING "
                              "(bad magic)\n")


def test_trust_report_on_a_missing_ledger_exits_2(tmp_path):
    code, out, err = run_cli("trust-report", str(tmp_path / "ghost.bin"))
    assert (code, out) == (2, "")
    assert err.startswith("cannot read ") and err.count("\n") == 1


def _offline_report_matches_stored(run_dir) -> dict:
    """trust-report --json of a run's ledger, checked against its
    report.json on every field the offline report has."""
    code, out, _ = run_cli("trust-report", str(run_dir / "ledger.bin"),
                           "--json")
    assert code == 0
    offline = json.loads(out)
    stored = json.loads((run_dir / "report.json").read_text())
    # names and request history come from the event log, which the
    # offline replay does not see; the numbers must still agree exactly
    def anonymous(rows):
        return [{k: v for k, v in r.items() if k != "name"} for r in rows]
    assert anonymous(offline["providers"]) == anonymous(stored["providers"])
    assert anonymous(offline["users"]) == anonymous(stored["users"])
    assert offline["chain"] == stored["chain"]
    return offline


def test_trust_report_matches_run_report(run_dir):
    _offline_report_matches_stored(run_dir)


def test_pinned_run_trust_report_matches_run_report(pinned_run):
    offline = _offline_report_matches_stored(pinned_run)
    assert offline["users"]
    c = make_world(PINNED_CFG).nodes["c"].address
    blocks = read_ledger(pinned_run / "ledger.bin")
    assert replay_blocks(blocks).chain.registered[c].pinned
    trusts = {row["address"]: row["consensus_trust"]
              for row in offline["providers"]}
    assert trusts.pop(c.hex()) == 0.0
    assert trusts and all(t > 0 for t in trusts.values())


def test_block_from_pinned_provider_fails_verify(pinned_run, tmp_path):
    # c seals one more block as if it had bootstrap trust; only its pin
    # on the ledger makes that block ineligible
    key = make_world(PINNED_CFG).nodes["c"].key
    blocks = read_ledger(pinned_run / "ledger.bin")
    replica = replay_blocks(blocks)
    chain = replica.chain
    state = consensus.consensus_state_at(chain, key.address)
    slots = range(chain.tip.header.timestamp + 1,
                  chain.tip.header.timestamp + 1000)
    ts = next((ts for ts in slots if consensus.check_eligibility(
        chain.params, state, BOOTSTRAP_TRUST, key.pub_bytes, ts)), None)
    assert ts, "c never eligible at bootstrap trust"
    header = BlockHeader(
        height=chain.height + 1, prev_block=chain.tip.h_blk,
        tx_root=compute_tx_root(()), timestamp=ts,
        generator_pub=key.pub_bytes,
        prf=consensus.candidate_prf(key.pub_bytes, state.prf_old),
        base_target=chain.params.base_target, sig=b"\x00" * 64)
    forged = consensus.seal_block(Block(header, ()), key)
    assert consensus.validate_block(forged, chain, BOOTSTRAP_TRUST) is None
    path = tmp_path / "forged.bin"
    write_ledger(path, [*blocks, forged])

    code, out, _ = run_cli("verify", str(path))
    assert code == 1
    assert out == f"FAIL height={forged.height} txid=- reason=NOT_ELIGIBLE\n"
    # trust-report prints the same line for a ledger that does not replay
    assert run_cli("trust-report", str(path), "--json") == (1, out, "")


def test_run_fails_when_its_persisted_ledger_does_not_replay(
        scenario_file, tmp_path, monkeypatch):
    def write_bad_sig(path, blocks):
        tip = blocks[-1]
        sig = bytes([tip.header.sig[0] ^ 0x01]) + tip.header.sig[1:]
        write_ledger(path, [*blocks[:-1],
                            Block(replace(tip.header, sig=sig), tip.txs)])

    monkeypatch.setattr(cli, "write_ledger", write_bad_sig)
    code, _, err = run_cli("run", str(scenario_file),
                           "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("persisted ledger failed verification: ")
    assert not (tmp_path / "report.json").exists()


def test_run_names_the_block_its_persisted_ledger_fails_to_parse(
        scenario_file, run_dir, tmp_path, monkeypatch):
    def write_truncated(path, blocks):
        write_ledger(path, blocks)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 7)

    monkeypatch.setattr(cli, "write_ledger", write_truncated)
    code, _, err = run_cli("run", str(scenario_file),
                           "--out-dir", str(tmp_path))
    tip = len(read_ledger(run_dir / "ledger.bin")) - 1
    assert tip > 1
    assert (code, err) == (1, "persisted ledger failed verification: "
                              "BAD_ENCODING: truncated field "
                              f"at height {tip}\n")


def test_trust_report_table_lists_users(run_dir):
    code, out, _ = run_cli("trust-report", str(run_dir / "ledger.bin"))
    assert code == 0
    assert "provider" in out and "credibility" in out


def test_registrations_only_ledger_reports_bootstrap(tmp_path):
    cfg = base_cfg(seed=3, duration_ms=4000)
    path = tmp_path / "quiet.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, _, _ = run_cli("run", str(path), "--out-dir", str(tmp_path))
    assert code == 0
    code, out, _ = run_cli("trust-report", str(tmp_path / "ledger.bin"),
                           "--json")
    assert code == 0
    report = json.loads(out)
    assert report["users"] == []
    for row in report["providers"]:
        assert row["consensus_trust"] == 0.5
        assert row["sat"] == 0.0
        assert row["auth"] == 0.0
        assert row["trust"] == 0.0
