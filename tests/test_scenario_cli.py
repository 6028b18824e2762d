"""Config validation messages and the command-line round trip."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest
import yaml

from ctsim import cli, consensus, ledger, scenario
from ctsim.cli import main
from ctsim.crypto import ZERO_DIGEST, DetRng, generate_keypair
from ctsim.fixedpoint import ONE, fp_from
from ctsim.ledger import (
    Block, BlockHeader, RegisterData, build_register_tx, compute_tx_root,
    genesis_prf, make_genesis, read_ledger, write_ledger,
)
from ctsim.replica import replay_blocks
from ctsim.scenario import ConfigError, load_config
from ctsim.trust import BOOTSTRAP_TRUST

from conftest import base_cfg, four_nodes, make_world, perfbench_module


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
        "ledger.bin": "b1cd33cbc94e90ab384cd3fbcfe6a5512d109c60df814640b3c91bd6842bd29c",
        "events.jsonl": "146a45709e797a133d603752052729811c7d166ea4ce59bd576234ba77e4edb6",
        "report.json": "fe9828533b1806431cda5a938569b731e3dd6e557792bae857b393e416e6c792",
    },
    "partition": {
        "ledger.bin": "3bd5b69db36c80d11430b5fb30cd504e8c375a2ddd6d8baa208f1d35256fba8e",
        "events.jsonl": "e31e297b72dcf49ab46916b87fb692d41164501655c9498936c18354fed27ab7",
        "report.json": "db73ac9f3f25b1dd9338c52a281a55eebde6d7b40f517a4f8d95c18a2b82042b",
    },
    "adversaries": {
        "ledger.bin": "5e5c4e12c554db038e67e553a1272d959da8a8826e59ff903af0c4649eb4077a",
        "events.jsonl": "41cfbdb37f9dbb78d5ba8014634a98c13bd4f3c2646630b1b7bf2648fff58a00",
        "report.json": "853235cf65b03a843b70bba11f557a1e79e49a3e36cbf452a7a14a8908807889",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_scenario_artifacts_are_pinned(name, tmp_path):
    code, stdout, _ = run_cli("run", str(SCENARIOS / f"{name}.yaml"),
                              "--out-dir", str(tmp_path))
    assert code == 0, stdout
    got = {art: hashlib.sha256((tmp_path / art).read_bytes()).hexdigest()
           for art in PINNED[name]}
    assert got == PINNED[name]


@pytest.mark.parametrize("flags, hashseed", [([], "0"), ([], "1"),
                                             (["-O"], "0")],
                         ids=["hashseed-0", "hashseed-1", "optimized"])
def test_demo_artifacts_are_pinned_in_a_fresh_process(flags, hashseed,
                                                      tmp_path):
    src = str(SCENARIOS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
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


def test_libyaml_and_pure_loaders_agree(monkeypatch, tmp_path):
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    crowd = tmp_path / "crowd.yaml"
    crowd.write_text(perfbench_module("workloads").scenario_yaml("crowd", 1))
    paths = [SCENARIOS / f"{name}.yaml" for name in sorted(PINNED)] + [crowd]
    for path in paths:
        monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.CSafeLoader)
        fast = load_config(path)
        monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.SafeLoader)
        assert load_config(path) == fast, path.name


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
        generator_pub=key.pub_bytes, prf=ZERO_DIGEST,
        base_target=chain.params.base_target, sig=b"\x00" * 64)
    forged = consensus.seal_block(Block(header, ()), key, state.prf_old)
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
