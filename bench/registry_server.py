"""Registry server process for the registry-mix workload.

Usage: python3 bench/registry_server.py --directory D --state S --stats OUT [--trace 1 --spans F]

Serves the program's registry on 127.0.0.1, port 0, with persistence to the
state file.  Prints ``PORT <n>`` once it is ready, and shuts down when its
standard input closes, so it never outlives the benchmark that started it.
On exit it writes its peak RSS (and, traced, its calls) to the stats file.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from common import peak_rss_mb, use_checkout_program


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--directory", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    use_checkout_program()
    from backtrack import certificates, registry

    tracer = None
    if args.trace:
        from tracing import Tracer, install_program_wrappers

        tracer = Tracer()
        install_program_wrappers(tracer)
        tracer.wrap(registry._Handler, "handle", "registry.connection", full=True)
        tracer.wrap(
            registry.RegistryService, "handle_request",
            lambda args: f"registry.handle.{args[1][0].split(' ')[0] if args[1] else 'EMPTY'}",
            full=True,
        )

    with open(args.directory, encoding="utf-8") as f:
        directory = certificates.LabDirectory.from_lines(f.read())
    server = registry.serve("127.0.0.1", 0, directory, args.state)
    try:
        print(f"PORT {server.server_address[1]}", flush=True)

        def stop_at_eof() -> None:
            sys.stdin.read()
            server.shutdown()

        threading.Thread(target=stop_at_eof, daemon=True).start()
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()

    stats = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        stats["calls"] = tracer.call_table()
        stats["counts"] = dict(tracer.counts)
        stats["spans"] = len(tracer.spans)
        tracer.write_spans(args.spans)
    with open(args.stats, "w", encoding="utf-8") as f:
        json.dump(stats, f)


if __name__ == "__main__":
    main()
