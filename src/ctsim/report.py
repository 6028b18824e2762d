"""Run reports assembled strictly from persisted artifacts.

A report never peeks at live simulation state: it is a pure function of
the ledger file (replayed and therefore re-verified) and, when present,
the event log. Rebuilding a report from the same two artifacts gives the
same bytes, which is what makes run outputs auditable after the fact.
"""

from __future__ import annotations

import json
import statistics

from .crypto import address_of
from .fixedpoint import to_float
from .ledger import Block, TxKind
from .replica import Replica, replay_blocks


def load_events(path) -> list[dict]:
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


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


def _request_section(events: list[dict]) -> dict:
    # a request's outcome is its last state
    final: dict[str, dict] = {}
    for entry in events:
        if entry.get("event") == "request_state":
            final[entry["req"]] = entry
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


def _network_section(events: list[dict]) -> dict:
    counts = {"blocks_generated": 0, "fork_switches": 0,
              "partition_drops": 0, "messages": 0}
    tx_rejects: dict[str, int] = {}
    block_rejects: dict[str, int] = {}
    for entry in events:
        kind = entry.get("event")
        if kind == "block_generated":
            counts["blocks_generated"] += 1
        elif kind == "fork_switch":
            counts["fork_switches"] += 1
        elif kind == "partition_drop":
            counts["partition_drops"] += 1
        elif kind == "tx_rejected":
            reason = entry["reason"]
            tx_rejects[reason] = tx_rejects.get(reason, 0) + 1
        elif kind == "block_rejected":
            reason = entry["reason"]
            block_rejects[reason] = block_rejects.get(reason, 0) + 1
    counts["tx_rejections"] = tx_rejects
    counts["block_rejections"] = block_rejects
    return counts


def build_report(blocks: list[Block], events: list[dict] | None = None) -> dict:
    """Replay a ledger (verifying it) and summarize it with the event log.

    Raises LedgerError if the ledger does not replay cleanly; a report
    is only ever produced over a chain that passed full validation. The
    chain, provider and user figures come from the ledger alone, trust
    pins included; the events add names and the request and network
    sections.
    """
    names: dict[str, str] = {}
    user_names: dict[str, str] = {}
    if events:
        for entry in events:
            if entry.get("event") == "register":
                names[entry["address"]] = entry["node"]
            elif entry.get("event") == "user_registered":
                user_names[entry["pseudonym"]] = entry["user"]
    replica = replay_blocks(blocks)
    report = {
        "chain": _chain_section(blocks),
        "providers": _provider_section(replica, names),
        "users": _user_section(replica, user_names),
    }
    if events is not None:
        report["requests"] = _request_section(events)
        report["network"] = _network_section(events)
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
