"""The server process of the ``serve_match`` workload.

Mines the Adult stand-in at depth 2, puts the run in a fresh pattern
store, publishes it on a single-process ``PatternServer`` (``workers=1``,
``cache_size=0``, so every request is matched and rendered) and serves
on a free port.  A publisher thread in this same process does
``store.put`` + ``publish_run`` every 0.5 s, so writes contend with
reads for one interpreter, as they do in a live deployment.

The first stdout line is ``{"port": ..., "run_id": ...}``.  The driving
workload then sends one command per stdin line and reads one JSON line
back:

``trace on`` / ``trace off``
    install / remove the serving-layer tracer (``tracer.py``);
``mark``
    forget publish timings so far (the load starts now);
``cpu``
    the CPU seconds this process has used so far (all its threads);
``report``
    the tracer's cumulative per-layer snapshot;
``stop``
    stop publishing and serving; reply with peak RSS and publish
    timings, write ``--spans`` if tracing ran, and exit.

End of input counts as ``stop``, so the process never outlives the
workload process that started it.

    PYTHONPATH=src python3 benchmarks/suite/serve_target.py \\
        --store DIR [--quick] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter

from common import cpu_seconds
from tracer import Tracer, serve_targets

PUBLISH_INTERVAL_S = 0.5


def serve_dataset(quick: bool):
    """The Adult stand-in the server mines and the client samples request
    rows from.  It keeps the generator's own seed, so every run serves
    the same 80 patterns; ``--seed`` picks the request rows."""
    from repro.dataset import uci

    return uci.adult(scale=0.2 if quick else 1.0)


class Publisher(threading.Thread):
    """Publishes the same mined result as a new run every interval."""

    def __init__(self, store, server, result, interval: float) -> None:
        super().__init__(name="bench-publisher", daemon=True)
        self.store = store
        self.server = server
        self.result = result
        self.interval = interval
        self.halt = threading.Event()
        self.lock = threading.Lock()
        self.publish_ms: list[float] = []

    def run(self) -> None:
        while not self.halt.wait(self.interval):
            started = perf_counter()
            run_id = self.store.put(self.result, tags=("bench",))
            self.server.publish_run(run_id)
            with self.lock:
                self.publish_ms.append((perf_counter() - started) * 1e3)

    def take(self, clear: bool = False) -> list[float]:
        with self.lock:
            values = list(self.publish_ms)
            if clear:
                self.publish_ms.clear()
        return values


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    from repro import ContrastSetMiner, MinerConfig
    from repro.serve import PatternServer, PatternStore, ServeConfig

    result = ContrastSetMiner(MinerConfig(max_tree_depth=2)).mine(
        serve_dataset(args.quick)
    )
    store = PatternStore(args.store)
    run_id = store.put(result, tags=("bench",))
    server = PatternServer(
        store, ServeConfig(port=0, cache_size=0, workers=1)
    )
    server.publish_run(run_id)
    _, port = server.start()
    publisher = Publisher(store, server, result, PUBLISH_INTERVAL_S)
    publisher.start()
    tracer = Tracer(keep_traces=50)  # a request is ~50 spans, a mine ~10k
    traced = False
    _reply({"port": port, "run_id": run_id})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                tracer.install(serve_targets())
                traced = True
                _reply({"ok": True})
            elif command == "trace off":
                tracer.uninstall()
                _reply({"ok": True})
            elif command == "mark":
                publisher.take(clear=True)
                _reply({"ok": True})
            elif command == "cpu":
                _reply({"cpu_s": cpu_seconds()})
            elif command == "report":
                _reply(tracer.snapshot())
            elif command == "stop":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        publisher.halt.set()
        publisher.join()
        tracer.uninstall()
        server.stop()
    if traced and args.spans is not None:
        tracer.write_spans(args.spans)
    try:
        _reply({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "publish_ms": publisher.take(),
            "n_patterns": len(result.patterns),
        })
    except BrokenPipeError:
        pass  # the workload process is gone; nobody awaits the reply
    return 0


if __name__ == "__main__":
    sys.exit(main())
