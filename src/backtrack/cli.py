"""Command-line entry points for every protocol role.

Exit codes: 0 success, 1 protocol-level rejection (verification failed,
unknown PID, tampered chain, ...), 2 usage, input or I/O error: every
ValueError or OSError a command raises reaches `main`, which prints it to
stderr. Machine-readable output goes to stdout only.
"""

from __future__ import annotations

import argparse
import base64
import os
import sys
from datetime import date
from typing import Callable, TypeVar

from . import bizlog, contactlog, registry, wire
from .certificates import (
    CertificateOfInfection,
    LabIdentity,
    LabDirectory,
    VerificationStatus,
    certificate_to_line,
    issue_certificate,
    parse_certificate_line,
    verify_certificate,
)
from .identity import (
    Pid,
    commitment_to_line,
    generate_random_pid,
    generate_trusted_pid,
)
from .notify import (
    DeploymentMode,
    FileMailboxStore,
    Notification,
    build_notifications,
    parse_notifications,
    verify_notification,
)
from .sim import metrics_to_lines, parse_scenario, run_scenario

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2

T = TypeVar("T")


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Parse the UTF-8 text of the file at path; a ValueError names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse(f.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_pids(csv: str) -> list[Pid]:
    return [Pid(v) for v in csv.split(",") if v]


def _parse_lab_key(text: str) -> LabIdentity:
    parts = text.strip().split("|")
    if len(parts) != 4 or parts[0] != "labkey" or parts[2] != "ed25519":
        raise ValueError("malformed lab key line")
    return LabIdentity.from_seed(parts[1], wire.b64decode(parts[3]))


def _parse_cert(text: str) -> CertificateOfInfection:
    return parse_certificate_line(text.rstrip("\n"))


def _parse_mailbox(text: str) -> list[Notification]:
    # a mailbox gets whole lines only, so an unterminated last line is an
    # append cut short by a crash: it was never delivered, and is not read
    complete, _, torn = text.rpartition("\n")
    if torn:
        print("torn|1", file=sys.stderr)
    # `notify build` retried after a failed delivery appends its earlier mail
    # again, so a line identical to an earlier one is a copy and is not read
    lines = [line for line in complete.splitlines() if line]
    unique = list(dict.fromkeys(lines))
    if len(unique) < len(lines):
        print(f"dup|{len(lines) - len(unique)}", file=sys.stderr)
    notifications = parse_notifications("\n".join(unique))
    if not notifications:
        raise ValueError("no complete notification")
    return notifications


def _load_chain(args) -> bizlog.VisitorLog:
    head = _load(args.head, bizlog.parse_head)
    return _load(args.chain, lambda text: bizlog.parse_chain(text, head))


def _at_registry(args, call: Callable[..., T], *fields) -> T:
    """call(host, port, *fields); an OSError names the registry address."""
    try:
        return call(args.host, args.port, *fields)
    except OSError as exc:
        raise OSError(f"registry at {args.host}:{args.port}: {exc}") from exc


# -- subcommand handlers ----------------------------------------------------


def cmd_pid(args) -> int:
    if args.pid_mode == "random":
        print(generate_random_pid(args.seed))
        return EXIT_OK
    commitment = generate_trusted_pid(args.name, args.phrase)
    if args.commitment_file:
        wire.write_atomic(args.commitment_file, commitment_to_line(commitment) + "\n")
    print(commitment.pid)
    return EXIT_OK


def cmd_sim(args) -> int:
    metrics, trace = run_scenario(_load(args.scenario, parse_scenario))
    if args.trace:
        wire.write_atomic(args.trace, "".join(line + "\n" for line in trace))
    sys.stdout.write(metrics_to_lines(metrics))
    return EXIT_OK


def cmd_cert(args) -> int:
    if args.cert_mode == "keygen":
        if os.path.exists(args.key_out):
            raise ValueError(f"{args.key_out}: exists; refusing to overwrite a lab key")
        lab = LabIdentity.generate(args.lab_id)
        if os.path.exists(args.directory):
            directory = _load(args.directory, LabDirectory.from_lines)
        else:
            directory = LabDirectory()
        directory.add_lab(lab)
        seed = base64.b64encode(lab.private_bytes()).decode("ascii")
        wire.write_atomic(args.key_out, f"labkey|{args.lab_id}|ed25519|{seed}\n")
        wire.write_atomic(args.directory, directory.to_lines())
        print(args.lab_id)
        return EXIT_OK
    if args.cert_mode == "issue":
        cert = issue_certificate(
            _load(args.key, _parse_lab_key),
            _parse_pids(args.pids),
            test_date=date.fromisoformat(args.test_date),
            infectious_from=date.fromisoformat(args.infectious_from),
        )
        wire.write_atomic(args.out, certificate_to_line(cert) + "\n")
        print(args.out)
        return EXIT_OK
    # verify
    status = verify_certificate(
        _load(args.cert, _parse_cert), _load(args.directory, LabDirectory.from_lines)
    )
    print(status.value)
    return EXIT_OK if status is VerificationStatus.VERIFIED else EXIT_REJECTED


def cmd_notify(args) -> int:
    log = _load(args.log, contactlog.parse_log)
    if args.notify_mode == "build":
        cert = _load(args.cert, _parse_cert) if args.cert else None
        pairs = build_notifications(log, _parse_pids(args.own_pids), cert)
        store = FileMailboxStore(args.mailbox_dir)
        for pad, n in pairs:
            store.deliver(pad, n)
            print(f"sent|{pad}")
        return EXIT_OK
    # verify
    directory = _load(args.directory, LabDirectory.from_lines)
    notifications = _load(args.notification, _parse_mailbox)
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
        directory = _load(args.directory, LabDirectory.from_lines)
        server = _at_registry(args, registry.serve, directory, args.state)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
        return EXIT_OK
    if args.registry_mode == "query":
        response = _at_registry(args, registry.client_query, Pid(args.pid))
        ok = "YES"
    elif args.registry_mode == "claim":
        response = _at_registry(
            args,
            registry.client_claim,
            Pid(args.contact_pid),
            Pid(args.claimant_pid),
            args.name,
            args.phrase,
        )
        ok = "CONFIRMED"
    else:  # ingest
        response = _at_registry(args, registry.client_ingest, _load(args.cert, _parse_cert))
        ok = "OK"
    print(response)
    return EXIT_OK if response == ok else EXIT_REJECTED


def cmd_bizlog(args) -> int:
    if args.bizlog_mode == "append":
        log = _load_chain(args) if os.path.exists(args.chain) else bizlog.VisitorLog()
        bizlog.append_visit(log, Pid(args.pid), args.at)
        bizlog.save_chain(log, args.chain, args.head)
        print(f"appended|{log.chain[-1].seq}")
        return EXIT_OK
    if args.bizlog_mode == "verify":
        check = bizlog.verify_chain(_load_chain(args))
        if check.intact:
            print("INTACT")
            return EXIT_OK
        print(f"TAMPERED-AT {check.tampered_at}")
        return EXIT_REJECTED
    # evidence
    log = _load_chain(args)
    repo = _load(args.repo, registry.parse_repository)
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
    log = _load(args.log, contactlog.parse_log)
    if args.log_mode == "show":
        sys.stdout.write(contactlog.serialize_log(log))
        return EXIT_OK
    if args.log_mode == "prune":
        before = len(log.entries)
        contactlog.prune(log, args.now, args.retention_days)
        contactlog.save_log(log, args.log)
        print(f"pruned|{before - len(log.entries)}")
        return EXIT_OK
    # stats
    summary = contactlog.exposure_statistics(log)
    print(f"count|{summary.entry_count}")
    print(f"peers|{summary.distinct_peer_pids}")
    for location, count in summary.location_counts.items():
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
    p_serve = registry_sub.add_parser("serve")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, required=True)
    p_serve.add_argument("--directory", required=True)
    p_serve.add_argument("--state")
    p_query = registry_sub.add_parser("query")
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument("--port", type=int, required=True)
    p_query.add_argument("--pid", required=True)
    p_claim = registry_sub.add_parser("claim")
    p_claim.add_argument("--host", default="127.0.0.1")
    p_claim.add_argument("--port", type=int, required=True)
    p_claim.add_argument("--contact-pid", required=True)
    p_claim.add_argument("--claimant-pid", required=True)
    p_claim.add_argument("--name", required=True)
    p_claim.add_argument("--phrase", required=True)
    p_ingest = registry_sub.add_parser("ingest")
    p_ingest.add_argument("--host", default="127.0.0.1")
    p_ingest.add_argument("--port", type=int, required=True)
    p_ingest.add_argument("--cert", required=True)
    p_registry.set_defaults(func=cmd_registry)

    p_bizlog = sub.add_parser("bizlog", help="hash-chained visitor log")
    bizlog_sub = p_bizlog.add_subparsers(dest="bizlog_mode", required=True)
    p_append = bizlog_sub.add_parser("append")
    p_append.add_argument("--chain", required=True)
    p_append.add_argument("--head", required=True)
    p_append.add_argument("--pid", required=True)
    p_append.add_argument("--at", type=float, required=True)
    p_bverify = bizlog_sub.add_parser("verify")
    p_bverify.add_argument("--chain", required=True)
    p_bverify.add_argument("--head", required=True)
    p_evidence = bizlog_sub.add_parser("evidence")
    p_evidence.add_argument("--chain", required=True)
    p_evidence.add_argument("--head", required=True)
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
