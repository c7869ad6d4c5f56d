"""Command-line entry points for every protocol role.

Exit codes: 0 success, 1 protocol-level rejection (verification failed,
unknown PID, tampered chain, ...), 2 usage, input or I/O error: every
ValueError or OSError a command raises reaches `main`, which prints it to
stderr. Machine-readable output goes to stdout only.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import Counter

from . import bizlog, contactlog, registry, wire
from .certificates import (
    LabIdentity,
    LabDirectory,
    VerificationStatus,
    certificate_to_file,
    issue_certificate,
    parse_certificate_file,
    verify_certificate,
)
from .identity import (
    Pid,
    commitment_to_file,
    generate_random_pid,
    generate_trusted_pid,
)
from .notify import (
    DeploymentMode,
    FileMailboxStore,
    build_notifications,
    parse_mailbox,
    verify_notification,
)
from .sim import metrics_to_lines, parse_scenario, run_scenario, trace_to_lines

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2


def _parse_pids(csv: str) -> list[Pid]:
    pids = [Pid(v) for v in csv.split(",") if v]
    if not pids:
        raise ValueError("no PID given")
    return pids


# -- subcommand handlers ----------------------------------------------------


def cmd_pid(args) -> int:
    if args.pid_mode == "random":
        print(generate_random_pid(args.seed))
        return EXIT_OK
    commitment = generate_trusted_pid(args.name, args.phrase)
    if args.commitment_file:
        wire.write_atomic(args.commitment_file, commitment_to_file(commitment))
    print(commitment.pid)
    return EXIT_OK


def cmd_sim(args) -> int:
    metrics, trace = run_scenario(wire.load(args.scenario, parse_scenario))
    if args.trace:
        wire.write_atomic(args.trace, trace_to_lines(trace))
    sys.stdout.write(metrics_to_lines(metrics))
    return EXIT_OK


def cmd_cert(args) -> int:
    if args.cert_mode == "keygen":
        with wire.locked(args.directory):
            if os.path.exists(args.directory):
                directory = wire.load(args.directory, LabDirectory.from_lines)
            else:
                directory = LabDirectory()
            key_exists = os.path.exists(args.key_out)
            if key_exists:
                # a key whose directory write failed is published by the retry;
                # any other key file is kept as it is
                lab = wire.load(args.key_out, LabIdentity.from_lines)
                if lab.lab_id != args.lab_id or directory.lookup(lab.lab_id) is not None:
                    raise ValueError(f"{args.key_out}: exists; refusing to overwrite a lab key")
            else:
                lab = LabIdentity.generate(args.lab_id)
            directory.add_lab(lab)
            if not key_exists:
                wire.write_atomic(args.key_out, lab.to_lines())
            wire.write_atomic(args.directory, directory.to_lines())
        print(args.lab_id)
        return EXIT_OK
    if args.cert_mode == "issue":
        cert = issue_certificate(
            wire.load(args.key, LabIdentity.from_lines),
            _parse_pids(args.pids),
            test_date=wire.parse_day(args.test_date),
            infectious_from=wire.parse_day(args.infectious_from),
        )
        wire.write_atomic(args.out, certificate_to_file(cert))
        print(args.out)
        return EXIT_OK
    # verify
    status = verify_certificate(
        wire.load(args.cert, parse_certificate_file),
        wire.load(args.directory, LabDirectory.from_lines),
    )
    print(status.value)
    return EXIT_OK if status is VerificationStatus.VERIFIED else EXIT_REJECTED


def cmd_notify(args) -> int:
    log = contactlog.load_log(args.log)
    if args.notify_mode == "build":
        cert = wire.load(args.cert, parse_certificate_file) if args.cert else None
        pairs = build_notifications(log, _parse_pids(args.own_pids), cert)
        store = FileMailboxStore(args.mailbox_dir)
        for pad, n in pairs:
            store.deliver(pad, n)
            print(f"sent|{pad}")
        return EXIT_OK
    # verify
    directory = wire.load(args.directory, LabDirectory.from_lines)
    (notifications, copies), torn = wire.load_lines(args.notification, parse_mailbox)
    if torn:
        print("torn|1", file=sys.stderr)
    if copies:
        print(f"dup|{copies}", file=sys.stderr)
    if not notifications:
        raise ValueError(f"{args.notification}: no complete notification")
    mode = DeploymentMode(args.mode)
    all_accepted = True
    for notification in notifications:
        verdict = verify_notification(
            notification, log, directory, mode=mode, time_tolerance_s=args.tolerance
        )
        print(verdict.status.value)
        if verdict.matched_entry is not None:
            print(contactlog.entry_to_line(verdict.matched_entry))
        all_accepted = all_accepted and verdict.accepted
    return EXIT_OK if all_accepted else EXIT_REJECTED


def cmd_registry(args) -> int:
    if args.registry_mode == "serve":
        directory = wire.load(args.directory, LabDirectory.from_lines)
        server = registry.serve(args.host, args.port, directory, args.state)
        with server, contextlib.suppress(KeyboardInterrupt):
            host, port = server.server_address[:2]
            print(f"listening|{host}|{port}", flush=True)
            server.serve_forever()
        return EXIT_OK
    address = args.host, args.port
    if args.registry_mode == "query":
        response = registry.client_query(*address, Pid(args.pid))
        ok = "YES"
    elif args.registry_mode == "claim":
        response = registry.client_claim(
            *address, Pid(args.contact_pid), Pid(args.claimant_pid), args.name, args.phrase
        )
        ok = "CONFIRMED"
    else:  # ingest
        response = registry.client_ingest(*address, wire.load(args.cert, parse_certificate_file))
        ok = "OK"
    print(response)
    return EXIT_OK if response == ok else EXIT_REJECTED


def cmd_bizlog(args) -> int:
    # an append holds the chain's lock from its audit to its head write
    with wire.locked(args.chain) if args.bizlog_mode == "append" else contextlib.nullcontext():
        # every mode audits the chain first: an append never extends, and so
        # hides, a chain that was cut or edited, and evidence never rests on one
        if args.bizlog_mode == "append" and bizlog.nothing_committed(args.chain, args.head):
            log = bizlog.VisitorLog()
        else:
            log = bizlog.load_chain(args.chain, args.head)
        check = bizlog.verify_chain(log)
        if not check.intact:
            print(f"TAMPERED-AT {check.tampered_at}")
            return EXIT_REJECTED
        if args.bizlog_mode == "verify":
            print("INTACT")
            return EXIT_OK
        if args.bizlog_mode == "append":
            bizlog.append_visit(log, Pid(args.pid), args.at)
            bizlog.save_chain(log, args.chain, args.head)
            print(f"appended|{log.chain[-1].seq}")
            return EXIT_OK
        repo, torn = wire.load_lines(args.repo, registry.parse_repository)
        if torn:
            print("torn|1", file=sys.stderr)
        verdict = bizlog.evidence_query(
            log,
            Pid(args.pid),
            args.window_from,
            args.window_to,
            lambda pid: registry.is_notified_pid(repo, pid),
        )
        print(verdict.value)
        return EXIT_OK if verdict is bizlog.EvidenceVerdict.VISIT_AND_CERTIFIED else EXIT_REJECTED


def cmd_log(args) -> int:
    if args.log_mode == "prune":
        with wire.locked(args.log):
            log = contactlog.load_log(args.log)
            before = len(log.entries)
            contactlog.prune(log, args.now, args.retention_days)
            contactlog.save_log(log, args.log)
        print(f"pruned|{before - len(log.entries)}")
        return EXIT_OK
    log = contactlog.load_log(args.log)
    if args.log_mode == "show":
        sys.stdout.write(contactlog.serialize_log(log))
        return EXIT_OK
    # stats
    print(f"count|{len(log.entries)}")
    print(f"peers|{len(log.by_peer)}")
    locations = Counter(e.own_record.local_location for e in log.entries)
    for location, count in sorted(locations.items()):
        print(f"location|{wire.quote(location)}|{count}")
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backtrack", description="Distributed contact back-tracking toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pid = sub.add_parser("pid", help="generate pseudo-IDs")
    pid_sub = p_pid.add_subparsers(dest="pid_mode", required=True)
    p_random = pid_sub.add_parser("random")
    p_random.add_argument("--seed", type=int, required=True)
    p_trusted = pid_sub.add_parser("trusted")
    p_trusted.add_argument("--name", required=True)
    p_trusted.add_argument("--phrase", required=True)
    p_trusted.add_argument("--commitment-file")
    p_pid.set_defaults(func=cmd_pid)

    p_sim = sub.add_parser("sim", help="run a simulation scenario")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--trace")
    p_sim.set_defaults(func=cmd_sim)

    p_cert = sub.add_parser("cert", help="lab keys and infection certificates")
    cert_sub = p_cert.add_subparsers(dest="cert_mode", required=True)
    p_keygen = cert_sub.add_parser("keygen")
    p_keygen.add_argument("--lab-id", required=True)
    p_keygen.add_argument("--key-out", required=True)
    p_keygen.add_argument("--directory", required=True)
    p_issue = cert_sub.add_parser("issue")
    p_issue.add_argument("--key", required=True)
    p_issue.add_argument("--pids", required=True)
    p_issue.add_argument("--test-date", required=True)
    p_issue.add_argument("--infectious-from", required=True)
    p_issue.add_argument("--out", required=True)
    p_verify = cert_sub.add_parser("verify")
    p_verify.add_argument("--cert", required=True)
    p_verify.add_argument("--directory", required=True)
    p_cert.set_defaults(func=cmd_cert)

    p_notify = sub.add_parser("notify", help="build and verify notifications")
    notify_sub = p_notify.add_subparsers(dest="notify_mode", required=True)
    p_build = notify_sub.add_parser("build")
    p_build.add_argument("--log", required=True)
    p_build.add_argument("--own-pids", required=True)
    p_build.add_argument("--cert")
    p_build.add_argument("--mailbox-dir", required=True)
    p_nverify = notify_sub.add_parser("verify")
    p_nverify.add_argument("--log", required=True)
    p_nverify.add_argument("--directory", required=True)
    p_nverify.add_argument("--notification", required=True)
    p_nverify.add_argument(
        "--mode",
        choices=[m.value for m in DeploymentMode],
        default=DeploymentMode.CERTIFICATE_REQUIRED.value,
    )
    p_nverify.add_argument(
        "--tolerance", type=float, default=contactlog.DEFAULT_TIME_TOLERANCE_S
    )
    p_notify.set_defaults(func=cmd_notify)

    p_registry = sub.add_parser("registry", help="notified-PID repository service")
    registry_sub = p_registry.add_subparsers(dest="registry_mode", required=True)
    address = argparse.ArgumentParser(add_help=False)
    address.add_argument("--host", default="127.0.0.1")
    address.add_argument("--port", type=int, required=True)
    p_serve = registry_sub.add_parser("serve", parents=[address])
    p_serve.add_argument("--directory", required=True)
    p_serve.add_argument("--state")
    p_query = registry_sub.add_parser("query", parents=[address])
    p_query.add_argument("--pid", required=True)
    p_claim = registry_sub.add_parser("claim", parents=[address])
    p_claim.add_argument("--contact-pid", required=True)
    p_claim.add_argument("--claimant-pid", required=True)
    p_claim.add_argument("--name", required=True)
    p_claim.add_argument("--phrase", required=True)
    p_ingest = registry_sub.add_parser("ingest", parents=[address])
    p_ingest.add_argument("--cert", required=True)
    p_registry.set_defaults(func=cmd_registry)

    p_bizlog = sub.add_parser("bizlog", help="hash-chained visitor log")
    bizlog_sub = p_bizlog.add_subparsers(dest="bizlog_mode", required=True)
    chain_files = argparse.ArgumentParser(add_help=False)
    chain_files.add_argument("--chain", required=True)
    chain_files.add_argument("--head", required=True)
    p_append = bizlog_sub.add_parser("append", parents=[chain_files])
    p_append.add_argument("--pid", required=True)
    p_append.add_argument("--at", type=float, required=True)
    bizlog_sub.add_parser("verify", parents=[chain_files])
    p_evidence = bizlog_sub.add_parser("evidence", parents=[chain_files])
    p_evidence.add_argument("--pid", required=True)
    p_evidence.add_argument("--from", dest="window_from", type=float, required=True)
    p_evidence.add_argument("--to", dest="window_to", type=float, required=True)
    p_evidence.add_argument("--repo", required=True)
    p_bizlog.set_defaults(func=cmd_bizlog)

    p_log = sub.add_parser("log", help="inspect and maintain the contact log")
    log_sub = p_log.add_subparsers(dest="log_mode", required=True)
    for name in ("show", "prune", "stats"):
        p = log_sub.add_parser(name)
        p.add_argument("--log", required=True)
        if name == "prune":
            p.add_argument("--now", type=float, required=True)
            p.add_argument(
                "--retention-days", type=int, default=contactlog.DEFAULT_RETENTION_DAYS
            )
    p_log.set_defaults(func=cmd_log)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
