"""Run reports assembled strictly from persisted artifacts.

A report never peeks at live simulation state: it is a pure function of
the ledger file (replayed and therefore re-verified) and, when present,
the event log. Rebuilding a report from the same two artifacts gives the
same bytes, which is what makes run outputs auditable after the fact.
"""

from __future__ import annotations

import json
import statistics
from collections.abc import Iterable, Iterator

from .crypto import address_of
from .fixedpoint import to_float
from .ledger import Block, TxKind
from .replica import Replica, replay_blocks


def load_events(path) -> Iterator[dict]:
    """The entries of an events.jsonl file, each parsed as it is read: a
    reader that folds them holds one at a time, never the whole log. The
    file is opened at the first read and closed after the last."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def dump_events(path, events: list[dict]) -> None:
    # the encoder json.dumps(entry, sort_keys=True) builds, built once
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        for entry in events:
            fh.write(encode(entry) + "\n")


def _score_means(replica: Replica) -> dict[bytes, dict[str, float]]:
    """Per-provider aggregate scores at the replayed tip."""
    trust = replica.trust
    out = {}
    for address in trust.declared:
        out[address] = {
            "auth": to_float(trust.auth_score(address)),
            "sat": to_float(trust.sat_score(address)),
            "trust": to_float(trust.trust_of(address)),
        }
    return out


def _chain_section(blocks: list[Block]) -> dict:
    ts = [b.header.timestamp for b in blocks]
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    tx_counts = {kind.name.lower(): 0 for kind in TxKind}
    for blk in blocks[1:]:
        for tx in blk.txs:
            tx_counts[TxKind(tx.kind).name.lower()] += 1
    return {
        "height": len(blocks) - 1,
        "base_target": to_float(blocks[0].header.base_target),
        "tip": blocks[-1].h_blk.hex(),
        "mean_block_interval_ms":
            round(statistics.mean(gaps), 3) if gaps else None,
        "stdev_block_interval_ms":
            round(statistics.pstdev(gaps), 3) if len(gaps) > 1 else None,
        "txs": tx_counts,
    }


def _provider_section(replica: Replica, names: dict[str, str]) -> list[dict]:
    chain = replica.chain
    generated: dict[bytes, int] = {}
    for blk in chain.blocks[1:]:
        addr = address_of(blk.header.generator_pub)
        generated[addr] = generated.get(addr, 0) + 1
    scores = _score_means(replica)
    rows = []
    for addr in sorted(chain.registered):
        reg = chain.registered[addr]
        row = {
            "address": addr.hex(),
            "stake": to_float(reg.stake),
            "weight_sat": to_float(reg.weight_sat),
            "weight_auth": to_float(reg.weight_auth),
            "blocks_generated": generated.get(addr, 0),
            "consensus_trust": to_float(replica.trust_for(addr)),
            **scores[addr],
        }
        name = names.get(addr.hex())
        if name is not None:
            row["name"] = name
        rows.append(row)
    return rows


def _user_section(replica: Replica, user_names: dict[str, str]) -> list[dict]:
    """Credibility of every user that has been rated at least once."""
    trust = replica.trust
    rows = []
    for user in sorted(trust.cred_sum):
        row = {
            "pseudonym": user.hex(),
            "credibility": to_float(trust.cred_user(user)),
            "raters": trust.cred_sum[user][1],
        }
        name = user_names.get(user.hex())
        if name is not None:
            row["name"] = name
        rows.append(row)
    return rows


# events counted in the network section, by the key they count under
NETWORK_COUNTS = {"block_generated": "blocks_generated",
                  "fork_switch": "fork_switches",
                  "partition_drop": "partition_drops"}
# events tallied by reason, by the key of their tally
NETWORK_TALLIES = {"tx_rejected": "tx_rejections",
                   "block_rejected": "block_rejections"}


def _fold_events(events: Iterable[dict]) -> tuple[dict, dict, dict, dict]:
    """One pass over the event log: provider names by address, user names
    by pseudonym, each request's last request_state entry by request id,
    and the network section."""
    names: dict[str, str] = {}
    user_names: dict[str, str] = {}
    final: dict[str, dict] = {}
    network: dict = {"blocks_generated": 0, "fork_switches": 0,
                     "partition_drops": 0, "messages": 0,
                     "tx_rejections": {}, "block_rejections": {}}
    for entry in events:
        kind = entry.get("event")
        if kind == "request_state":
            final[entry["req"]] = entry
        elif kind in NETWORK_COUNTS:
            network[NETWORK_COUNTS[kind]] += 1
        elif kind in NETWORK_TALLIES:
            tally = network[NETWORK_TALLIES[kind]]
            tally[entry["reason"]] = tally.get(entry["reason"], 0) + 1
        elif kind == "register":
            names[entry["address"]] = entry["node"]
        elif kind == "user_registered":
            user_names[entry["pseudonym"]] = entry["user"]
    return names, user_names, final, network


def _request_section(final: dict[str, dict]) -> dict:
    """Each request's outcome, its last request_state entry, in request
    order, with the outcomes tallied by state and by reason."""
    by_state: dict[str, int] = {}
    by_reason: dict[str, int] = {}
    detail = []
    for req in sorted(final, key=lambda r: int(r.split("-")[1])):
        entry = final[req]
        state = entry["state"]
        by_state[state] = by_state.get(state, 0) + 1
        if entry.get("reason"):
            by_reason[entry["reason"]] = by_reason.get(entry["reason"], 0) + 1
        row = {"req": req, "user": entry["user"], "target": entry["target"],
               "resource": entry["resource"], "state": state}
        if entry.get("reason"):
            row["reason"] = entry["reason"]
        if entry.get("local"):
            row["local"] = True
        if entry.get("token"):
            row["token"] = entry["token"]
        detail.append(row)
    return {"total": len(detail), "by_state": by_state,
            "by_reason": by_reason, "detail": detail}


def build_report(blocks: list[Block],
                 events: Iterable[dict] | None = None) -> dict:
    """Replay a ledger (verifying it) and summarize it with the event log.

    Raises LedgerError if the ledger does not replay cleanly; a report
    is only ever produced over a chain that passed full validation. The
    chain, provider and user figures come from the ledger alone, trust
    pins included; the events add names and the request and network
    sections. events may be any iterable of entries, load_events' stream
    included: it is read once, before the replay, and only names, each
    request's last state and the network counts are kept from it.
    """
    names, user_names, final, network = _fold_events(events or ())
    replica = replay_blocks(blocks)
    report = {
        "chain": _chain_section(blocks),
        "providers": _provider_section(replica, names),
        "users": _user_section(replica, user_names),
    }
    if events is not None:
        report["requests"] = _request_section(final)
        report["network"] = network
    return report


def dump_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def render_trust_table(report: dict) -> str:
    """Human-oriented fixed-width view of the provider table."""
    rows = report["providers"]
    head = (f"{'provider':<22} {'stake':>7} {'trust':>8} {'sat':>8} "
            f"{'auth':>8} {'blocks':>7}")
    lines = [head, "-" * len(head)]
    for row in rows:
        label = row.get("name") or row["address"][:16]
        lines.append(f"{label:<22} {row['stake']:>7.3f} "
                     f"{row['trust']:>8.4f} {row['sat']:>8.4f} "
                     f"{row['auth']:>8.4f} {row['blocks_generated']:>7}")
    users = report.get("users") or []
    if users:
        head = f"{'user':<30} {'credibility':>12} {'raters':>7}"
        lines += ["", head, "-" * len(head)]
        for row in users:
            label = row.get("name") or row["pseudonym"][:24]
            lines.append(f"{label:<30} {row['credibility']:>12.4f} "
                         f"{row['raters']:>7}")
    return "\n".join(lines)
