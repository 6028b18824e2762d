"""Command-line front end: run scenarios, verify ledgers, report trust.

Exit codes: 0 on success, 1 when a run or verification fails, 2 for
unusable input (bad arguments, unreadable files, invalid config).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import yaml

from .crypto import CryptoError
from .ledger import LedgerError, read_ledger, write_ledger
from .replica import VerifyFailure, replay_blocks
from .report import (
    build_report,
    dump_events,
    dump_report,
    load_events,
    render_trust_table,
)
from .scenario import ConfigError, load_config
from .sim import World

log = logging.getLogger("ctsim")


def _setup_logging(level: str) -> None:
    logging.basicConfig(level=getattr(logging, level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"cannot load config: {exc}", file=sys.stderr)
        return 2
    if args.seed_override is not None:
        if not 0 <= args.seed_override < 2 ** 64:
            print("seed override must lie in [0, 2^64)", file=sys.stderr)
            return 2
        cfg.seed = args.seed_override
    os.makedirs(args.out_dir, exist_ok=True)

    log.info("running scenario: seed=%d duration=%dms nodes=%d",
             cfg.seed, cfg.duration_ms, len(cfg.nodes))
    world = World(cfg)
    try:
        world.run()
    except CryptoError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    ledger_path = os.path.join(args.out_dir, "ledger.bin")
    events_path = os.path.join(args.out_dir, "events.jsonl")
    report_path = os.path.join(args.out_dir, "report.json")
    write_ledger(ledger_path, world.canonical.chain.blocks)
    dump_events(events_path, world.events)

    # the report is built from what was just persisted, not from live
    # state, so regenerating it later from the same files is a no-op
    try:
        report = build_report(read_ledger(ledger_path),
                              load_events(events_path))
    except (LedgerError, VerifyFailure) as exc:
        print(f"persisted ledger failed verification: {exc}", file=sys.stderr)
        return 1
    dump_report(report_path, report)

    chain = report["chain"]
    log.info("chain height %d, mean interval %s ms",
             chain["height"], chain["mean_block_interval_ms"])
    requests = report.get("requests", {})
    if requests.get("total"):
        log.info("requests: %s", requests["by_state"])
    print(render_trust_table(report))
    print(f"artifacts in {args.out_dir}: ledger.bin events.jsonl report.json")
    return 0


def _read_ledger_checked(path) -> tuple[list | None, int]:
    try:
        blocks = read_ledger(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None, 2
    except LedgerError as exc:
        print(f"FAIL malformed ledger: {exc.reason} ({exc.detail})")
        return None, 1
    return blocks, 0


def _fail(exc: VerifyFailure) -> int:
    """Print the one FAIL line for a ledger that does not replay."""
    txid = exc.txid.hex() if exc.txid else "-"
    print(f"FAIL height={exc.height} txid={txid} reason={exc.reason}")
    return 1


def cmd_verify(args) -> int:
    blocks, rc = _read_ledger_checked(args.ledger)
    if blocks is None:
        return rc
    try:
        replica = replay_blocks(blocks)
    except VerifyFailure as exc:
        return _fail(exc)
    ntx = sum(len(b.txs) for b in blocks[1:])
    chain = replica.chain
    print(f"OK height={chain.height} txs={ntx} tip={chain.tip.h_blk.hex()}")
    return 0


def cmd_trust_report(args) -> int:
    blocks, rc = _read_ledger_checked(args.ledger)
    if blocks is None:
        return rc
    try:
        report = build_report(blocks)
    except VerifyFailure as exc:
        return _fail(exc)
    if args.json:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        print(render_trust_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctsim",
        description="Trust-chained identity federation simulator")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", help="scenario YAML file")
    run.add_argument("--out-dir", default="out",
                     help="directory for ledger/events/report artifacts")
    run.add_argument("--seed-override", type=int, default=None,
                     help="replace the config seed for this run")
    run.set_defaults(fn=cmd_run)

    verify = sub.add_parser("verify",
                            help="re-validate a persisted ledger offline")
    verify.add_argument("ledger", help="ledger.bin file")
    verify.set_defaults(fn=cmd_verify)

    trust = sub.add_parser("trust-report",
                           help="replay a ledger and print the trust table")
    trust.add_argument("ledger", help="ledger.bin file")
    trust.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    trust.set_defaults(fn=cmd_trust_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.log_level)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
