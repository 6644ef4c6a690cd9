"""Multi-process serving: ``SO_REUSEPORT`` workers over one store.

One threaded Python process tops out far below production traffic — the
GIL serialises JSON encoding and matching even with a compiled
:class:`~repro.serve.plan.MatcherPlan`.  :class:`WorkerPool` runs N full
:class:`~repro.serve.server.PatternServer` processes instead, each
binding its **own** listening socket on the same ``(host, port)`` with
``SO_REUSEPORT`` set, so the kernel load-balances accepted connections
across processes with no proxy in front.

Coordination model — deliberately, there is none:

* **Hot swap by store-epoch polling.**  Workers never talk to each
  other or to the parent.  Each polls the store manifest (mtime/size
  stat first, a cheap no-op between publishes) and, on change, loads
  and activates the latest run.  Responses are stamped with the run's
  own store sequence number as ``epoch``, so every worker reports the
  same ``(run, epoch)`` for the same run without agreeing on anything;
  workers converge within one poll interval of a ``store.put``.
* **Publishing is a store write.**  Publishing in pool mode *is*
  ``store.put`` — the store's append-only atomic manifest, whose
  writers take turns under the store's lock, is the only
  synchronisation, and a corrupt new run simply leaves every worker
  serving the previous one.
* **Metrics merge at read time.**  Each worker also binds a private
  loopback admin socket serving its local counters and registers it in
  a rendezvous directory.  Whichever worker the kernel hands a
  ``GET /metrics`` scrapes its siblings and merges (request/error sums
  are exact; see
  :func:`~repro.core.instrumentation.merge_endpoint_snapshots`), so the
  endpoint behaves as if the pool were one server.

Where the platform has no ``SO_REUSEPORT`` (the only portable way to
share a port across processes without passing file descriptors),
:meth:`PatternServer.start` falls back to the single in-process socket —
fork-free, and recorded as ``"single-socket-fallback"`` in ``/metrics``.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .store import PatternStore, StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import PatternServer, ServeConfig

__all__ = ["WorkerPool", "PeerRegistry", "reuseport_available", "run_seq"]

_READY_TIMEOUT_S = 45.0
_PEER_SCRAPE_TIMEOUT_S = 3.0


def reuseport_available() -> bool:
    """True when this platform can share a listening port across
    processes via ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


def run_seq(run_id: str) -> int | None:
    """The store sequence embedded in a run id (``run-000007-…`` → 7).

    This is the *store epoch* multi-worker responses are stamped with;
    ``None`` for ids that do not follow the store's naming (in-memory
    publishes), where the local epoch counter applies instead.
    """
    parts = run_id.split("-")
    if len(parts) >= 2:
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None


# -- worker-side pieces --------------------------------------------------


class _StoreFollower(threading.Thread):
    """Poll the store manifest; activate the latest run on change."""

    def __init__(
        self, server: "PatternServer", store: PatternStore, interval: float
    ) -> None:
        super().__init__(name="repro-store-follower", daemon=True)
        self._server = server
        self._store = store
        self._interval = interval
        self._stop_event = threading.Event()
        self._last_stat: tuple | None = None

    def poll_once(self) -> None:
        try:
            stat = os.stat(self._store._manifest_path)
        except OSError:
            return
        signature = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        if signature == self._last_stat:
            return
        self._last_stat = signature
        try:
            latest = self._store.latest()
        except StoreError:
            return  # torn read of a mid-rewrite manifest: retry next tick
        if latest is None or latest == self._server.active_run:
            return
        from .server import HTTPError

        try:
            self._server.publish_run(latest, epoch=run_seq(latest))
        except (HTTPError, StoreError):
            # Corrupt or vanished run: keep serving the previous one;
            # the next poll retries whatever the manifest then names.
            self._last_stat = None

    def stop(self) -> None:
        self._stop_event.set()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            self.poll_once()


class PeerRegistry:
    """Rendezvous-directory view of a pool's workers (for metrics merge)."""

    def __init__(self, rendezvous_dir: str | os.PathLike, index: int) -> None:
        self.root = Path(rendezvous_dir)
        self.index = index

    def _entry_path(self, index: int) -> Path:
        return self.root / f"worker-{index:03d}.json"

    def register(self, admin_host: str, admin_port: int) -> None:
        """Publish this worker's admin address (atomically: the parent
        treats the file's existence as the worker's readiness signal)."""
        payload = {
            "worker": self.index,
            "pid": os.getpid(),
            "admin_host": admin_host,
            "admin_port": admin_port,
        }
        fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_name, self._entry_path(self.index))

    def entries(self) -> list[dict[str, Any]]:
        found = []
        for path in sorted(self.root.glob("worker-*.json")):
            try:
                found.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue
        return found

    def _scrape(self, entry: dict[str, Any]) -> dict[str, Any]:
        conn = http.client.HTTPConnection(
            entry["admin_host"],
            int(entry["admin_port"]),
            timeout=_PEER_SCRAPE_TIMEOUT_S,
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise OSError(f"admin scrape returned {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def merged(self, local_payload: dict[str, Any]) -> dict[str, Any]:
        """Pool-wide metrics: this worker's live counters + scraped peers."""
        from ..core.instrumentation import merge_endpoint_snapshots

        workers: list[dict[str, Any]] = []
        for entry in self.entries():
            if int(entry.get("worker", -1)) == self.index:
                workers.append(local_payload)
                continue
            try:
                workers.append(self._scrape(entry))
            except (OSError, ValueError):
                workers.append(
                    {"worker": entry.get("worker"), "unreachable": True}
                )
        if not any(w.get("worker") == self.index for w in workers):
            workers.append(local_payload)  # registry file raced/missing
        reachable = [w for w in workers if not w.get("unreachable")]
        cache = {"size": 0, "capacity": 0, "hits": 0, "misses": 0}
        loaded: set[str] = set()
        for worker in reachable:
            for key in cache:
                cache[key] += int(worker.get("query_cache", {}).get(key, 0))
            loaded.update(worker.get("loaded_runs", ()))
        return {
            "mode": "multi-worker",
            "endpoints": merge_endpoint_snapshots(
                w.get("endpoints", {}) for w in reachable
            ),
            "query_cache": cache,
            "epoch": max(
                (int(w.get("epoch", 0)) for w in reachable), default=0
            ),
            "active_run": local_payload.get("active_run"),
            "loaded_runs": sorted(loaded),
            "workers": workers,
        }


def _make_admin_server(server: "PatternServer"):
    """A tiny loopback HTTP server exposing this worker's local metrics."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class AdminHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            body = (
                json.dumps(
                    server._local_metrics_payload(), separators=(",", ":")
                )
                + "\n"
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # pragma: no cover
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), AdminHandler)
    httpd.daemon_threads = True
    return httpd


def _worker_main(
    store_root: str,
    config: "ServeConfig",
    worker_index: int,
    port: int,
    rendezvous_dir: str,
) -> None:
    """Entry point of one worker process (top-level: spawn-safe)."""
    from .server import PatternServer

    config = replace(config, port=port, workers=1)
    store = PatternStore(store_root, create=False)
    server = PatternServer(store, config)
    server._mode = "multi-worker"
    server._worker_index = worker_index
    registry = PeerRegistry(rendezvous_dir, worker_index)
    server._peers = registry

    follower = _StoreFollower(server, store, config.store_poll_interval)
    follower.poll_once()  # activate the latest run before taking traffic

    server.start(_reuse_port=True)
    admin = _make_admin_server(server)
    admin_thread = threading.Thread(
        target=admin.serve_forever, name="repro-worker-admin", daemon=True
    )
    admin_thread.start()
    follower.start()
    # Registering is the readiness signal: both sockets are listening and
    # the active run (if any) is loaded.
    registry.register(admin.server_address[0], admin.server_address[1])

    stop_event = threading.Event()

    def _terminate(signum, frame) -> None:  # pragma: no cover - signal path
        stop_event.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        while not stop_event.wait(0.5):
            pass
    finally:
        follower.stop()
        admin.shutdown()
        admin.server_close()
        server.stop()


# -- parent-side pool ----------------------------------------------------


class WorkerPool:
    """Spawn, supervise and stop N ``SO_REUSEPORT`` worker processes."""

    def __init__(self, store_root: str | os.PathLike, config: "ServeConfig"):
        self.store_root = str(store_root)
        self.config = config
        self._processes: list = []
        self._rendezvous: Path | None = None
        self._address: tuple[str, int] | None = None

    @property
    def workers(self) -> int:
        return self.config.workers

    def start(self) -> tuple[str, int]:
        """Spawn the workers; returns the shared (host, port)."""
        if self._processes:
            raise RuntimeError("worker pool already started")
        if not reuseport_available():  # pragma: no cover - guarded upstream
            raise RuntimeError("SO_REUSEPORT is not available here")
        # Reserve the port: a bound (not listening) placeholder resolves
        # port=0 to a concrete port and keeps it ours until every worker
        # has its own listener; not listening keeps it out of the
        # kernel's reuseport connection distribution.
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            placeholder.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            placeholder.bind((self.config.host, self.config.port))
            host, port = placeholder.getsockname()[:2]
            self._rendezvous = Path(
                tempfile.mkdtemp(prefix="repro-serve-pool-")
            )
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._processes = [
                ctx.Process(
                    target=_worker_main,
                    args=(
                        self.store_root,
                        self.config,
                        index,
                        port,
                        str(self._rendezvous),
                    ),
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
                for index in range(self.config.workers)
            ]
            for process in self._processes:
                process.start()
            self._await_ready()
            self._address = (host, port)
            return host, port
        except BaseException:
            self.stop()
            raise
        finally:
            placeholder.close()

    def _await_ready(self) -> None:
        assert self._rendezvous is not None
        deadline = time.monotonic() + _READY_TIMEOUT_S
        expected = {
            self._rendezvous / f"worker-{index:03d}.json"
            for index in range(self.config.workers)
        }
        while time.monotonic() < deadline:
            if all(path.exists() for path in expected):
                return
            dead = [p for p in self._processes if p.exitcode is not None]
            if dead:
                raise RuntimeError(
                    f"serve worker(s) exited during startup: "
                    f"{[p.name for p in dead]}"
                )
            time.sleep(0.02)
        raise RuntimeError(
            f"serve workers not ready within {_READY_TIMEOUT_S:.0f}s"
        )

    @property
    def address(self) -> tuple[str, int] | None:
        return self._address

    def pids(self) -> list[int]:
        return [p.pid for p in self._processes if p.pid is not None]

    def alive(self) -> int:
        return sum(1 for p in self._processes if p.is_alive())

    def join(self) -> None:
        """Block until every worker exits (the CLI's foreground mode)."""
        for process in self._processes:
            process.join()

    def stop(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5)
        self._processes = []
        if self._rendezvous is not None:
            shutil.rmtree(self._rendezvous, ignore_errors=True)
            self._rendezvous = None
        self._address = None
