"""Stdlib-only HTTP serving of mined patterns.

:class:`PatternServer` is the online half of the system: it loads runs
from a :class:`~repro.serve.store.PatternStore` (or takes them straight
from a miner), keeps one *active* run behind an atomically-swappable
reference, and answers REST calls::

    GET  /healthz                       liveness + active run
    GET  /metrics                       per-endpoint counters, cache stats
    GET  /runs                          visible runs (store + published)
    GET  /runs/<id>                     one run's metadata + summary
    GET  /runs/<id>/patterns?...        declarative query (see Query)
    POST /match        {"row": {...}}   patterns covering a record
    POST /match        {"rows": [...]}  batched: patterns per record

Guarantees the tests pin down:

* **No client-induced 500s.**  Malformed queries and bodies map to 400,
  unknown runs to 404, corrupt runs to 410 (after being quarantined),
  wrong methods to 405 — the catch-all 500 path exists only for genuine
  server bugs and increments an error counter the smoke job asserts is
  zero.
* **Hot swap without downtime or torn reads.**  ``publish_*`` swaps one
  tuple reference; every request snapshots that reference once, so a
  response is always computed against exactly one run version (the
  ``run``/``epoch`` fields in the response name it) even while a
  publisher is swapping mid-flight.
* **Corruption never kills the process.**  A run whose files fail
  integrity checks at load time is quarantined via the store and
  reported to the client; the server keeps serving everything else.

Queries are answered from an LRU cache keyed by (endpoint, run, epoch,
canonical query string or SHA-256 of the ``/match`` body); the epoch in
the key means a swap implicitly invalidates without locking out
readers.  With ``cache_size=0`` no key is built and the cache counts
nothing.

Row matching goes through the active index's compiled
:class:`~repro.serve.plan.MatcherPlan` — single rows and batches alike
are evaluated against all patterns with a handful of array ops (the plan
is built at publish time, so a hot swap pays compilation before the
first request).  With ``ServeConfig(workers=N)`` the server runs N
``SO_REUSEPORT`` worker processes instead of one in-process listener;
see :mod:`repro.serve.workers`.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import chain
from typing import TYPE_CHECKING, Any, Mapping, Sequence
from urllib.parse import parse_qsl, urlsplit

from time import perf_counter

from ..core.instrumentation import ServeMetrics
from .index import MatchError, PatternIndex
from .query import Query, QueryError, apply_query, encode_entry
from .store import CorruptRunError, PatternStore, StoreError, UnknownRunError

if TYPE_CHECKING:
    from ..core.miner import MiningResult

__all__ = ["ServeConfig", "PatternServer", "HTTPError"]

_ROW_VALUE_TYPES = frozenset((str, int, float))
"""Exact types of an accepted row value (a JSON string or number)."""
_DICTS = frozenset((dict,))


def _body_key(run_id: str, epoch: int, body: bytes) -> tuple:
    """Cache key of a ``/match`` response: exact, since the response is a
    pure function of the request body and the run version."""
    return ("match", run_id, epoch, hashlib.sha256(body).digest())


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving layer (mining has its own ``MinerConfig``)."""

    host: str = "127.0.0.1"
    port: int = 8765
    cache_size: int = 256
    """Cached query responses (0 disables the cache)."""
    max_body_bytes: int = 1 << 20
    """Largest accepted request body (413 beyond it)."""
    default_limit: int | None = None
    """Applied to /patterns queries that specify no limit of their own."""
    max_batch_rows: int = 1024
    """Largest accepted ``rows`` batch on ``POST /match`` (400 beyond it)."""
    workers: int = 1
    """Serving processes.  1 keeps the in-process threaded server; N > 1
    runs N ``SO_REUSEPORT`` worker processes over the shared store (falls
    back to the single in-process socket where the platform lacks
    ``SO_REUSEPORT``)."""
    store_poll_interval: float = 0.25
    """How often multi-worker processes poll the store manifest for new
    runs (the coordination-free hot-swap propagation channel)."""

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.store_poll_interval <= 0:
            raise ValueError("store_poll_interval must be > 0")


class HTTPError(Exception):
    """An error response with a status the handler turns into JSON."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class _ActiveRun:
    """The swappable unit: one run version the server answers from."""

    run_id: str
    epoch: int
    index: PatternIndex


class _LRUCache:
    """Tiny thread-safe LRU for rendered response bodies."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> bytes | None:
        with self._lock:
            body = self._entries.get(key)
            if body is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return body

    def put(self, key: tuple, body: bytes) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }


class _RequestHandler(BaseHTTPRequestHandler):
    """HTTP transport over :meth:`PatternServer.handle`.

    Module-level (rather than closed over in ``start``) so worker
    processes can reuse it on their own ``SO_REUSEPORT`` listeners.
    """

    protocol_version = "HTTP/1.1"
    # Headers and body are flushed as separate segments; without
    # TCP_NODELAY the second write can stall ~40ms behind Nagle +
    # delayed ACK, capping keep-alive clients near 25 req/s.
    disable_nagle_algorithm = True

    @property
    def app(self) -> "PatternServer":
        return self.server.app  # type: ignore[attr-defined]

    def _dispatch(self, method: str) -> None:
        app = self.app
        length = self.headers.get("Content-Length")
        body = None
        # Each rejection below leaves the body unread (where it ends is
        # unknown, or it is too large to read), so the connection is
        # closed: otherwise its bytes would be parsed as the next request
        # on this keep-alive connection.  A body must come with a
        # Content-Length; a Transfer-Encoding (chunked or any other) is
        # refused before a byte of it is read.
        if self.headers.get("Transfer-Encoding") is not None:
            self._reply(
                411,
                app._render(
                    {"error": "Transfer-Encoding is not supported; "
                              "send a Content-Length",
                     "status": 411}
                ),
                close=True,
            )
            return
        if length is not None:
            length = length.strip(" \t")
            if not (length.isascii() and length.isdigit()):
                self._reply(
                    400,
                    app._render(
                        {"error": "malformed Content-Length header",
                         "status": 400}
                    ),
                    close=True,
                )
                return
            n = int(length)
            if n > app.config.max_body_bytes:
                self._reply(
                    413,
                    app._render(
                        {"error": "request body too large", "status": 413}
                    ),
                    close=True,
                )
                return
            body = self.rfile.read(n)
        status, response, _ = app.handle(method, self.path, body)
        self._reply(status, response)

    def _reply(
        self, status: int, response: bytes, close: bool = False
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(response)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def log_message(self, *args) -> None:  # pragma: no cover
        pass  # the metrics endpoint replaces stderr chatter


class _PatternHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying its app, optionally ``SO_REUSEPORT``."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        app: "PatternServer",
        reuse_port: bool = False,
    ) -> None:
        self.app = app
        self._reuse_port = reuse_port
        super().__init__(address, _RequestHandler)

    def server_bind(self) -> None:
        if self._reuse_port:
            self.socket.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
        super().server_bind()


class PatternServer:
    """Concurrent REST front over a pattern store and published runs."""

    def __init__(
        self,
        store: PatternStore | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self.store = store
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self._cache = _LRUCache(self.config.cache_size)
        self._indexes: dict[str, PatternIndex] = {}
        self._published: dict[str, dict[str, Any]] = {}
        self._load_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._active: _ActiveRun | None = None
        self._epoch = 0
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._pool = None
        self._mode = "single"
        self._peers = None  # set inside worker processes (metrics merge)
        self._worker_index: int | None = None

    # -- run loading and publication -----------------------------------

    def _index_of(self, run_id: str) -> PatternIndex:
        """The (immutable) index of a run, loading from the store once.

        Corrupt store runs are quarantined on first touch and surface as
        410; ids neither published nor in the store surface as 404.
        """
        index = self._indexes.get(run_id)
        if index is not None:
            return index
        if self.store is None:
            raise HTTPError(404, f"unknown run {run_id!r}")
        with self._load_lock:
            index = self._indexes.get(run_id)
            if index is not None:
                return index
            try:
                stored = self.store.get(run_id)
            except UnknownRunError as exc:
                raise HTTPError(404, str(exc)) from exc
            except CorruptRunError as exc:
                try:
                    self.store.quarantine(run_id)
                except StoreError:
                    pass  # already gone; the 410 still stands
                raise HTTPError(
                    410, f"run {run_id!r} failed integrity checks and "
                    f"was quarantined: {exc}"
                ) from exc
            except StoreError as exc:
                raise HTTPError(410, str(exc)) from exc
            index = PatternIndex(stored.patterns, stored.interests)
            index.plan  # compile the matcher plan before any request sees it
            self._indexes[run_id] = index
            return index

    def _swap_active(
        self, run_id: str, index: PatternIndex, epoch: int | None = None
    ) -> int:
        with self._publish_lock:
            if epoch is None:
                self._epoch += 1
                epoch = self._epoch
            else:
                # Store-derived epoch (multi-worker convergence): workers
                # stamp responses with the run's own store sequence so
                # every process reports the same epoch for the same run
                # without coordination.  Keep the local counter monotonic.
                self._epoch = max(self._epoch, epoch)
            # Single reference assignment: requests snapshot self._active
            # once, so they see either the old or the new run, never a mix.
            self._active = _ActiveRun(run_id, epoch, index)
            return epoch

    def _forbid_pooled_publish(self) -> None:
        if self._pool is not None:
            raise RuntimeError(
                "this server runs worker processes; publish by writing "
                "to the store (workers pick the latest run up themselves)"
            )

    def publish_run(self, run_id: str, epoch: int | None = None) -> int:
        """Make a store run the active one; returns the new epoch."""
        self._forbid_pooled_publish()
        index = self._index_of(run_id)
        return self._swap_active(run_id, index, epoch)

    def publish_patterns(
        self,
        patterns: Sequence,
        interests: Mapping | None = None,
        run_id: str | None = None,
        tags: Sequence[str] = (),
    ) -> int:
        """Publish an in-memory pattern list (no store round trip).

        This is the hot-swap path a refreshing
        :class:`~repro.streaming.StreamingContrastMiner` uses: build the
        index off-thread, then swap it in atomically.
        """
        self._forbid_pooled_publish()
        index = PatternIndex(patterns, interests)
        index.plan  # compile the matcher plan before any request sees it
        with self._publish_lock:
            if run_id is None:
                run_id = f"inline-{self._epoch + 1:06d}"
        self._indexes[run_id] = index
        self._published[run_id] = {
            "run_id": run_id,
            "n_patterns": len(index),
            "tags": list(tags),
            "source": "published",
        }
        return self._swap_active(run_id, index)

    def publish_result(
        self, result: "MiningResult", run_id: str | None = None
    ) -> int:
        """Publish a :class:`MiningResult` directly (no store round trip)."""
        return self.publish_patterns(
            result.patterns, result.interests, run_id=run_id
        )

    @property
    def active_run(self) -> str | None:
        active = self._active
        return active.run_id if active else None

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def mode(self) -> str:
        """Serving mode: ``single``, ``multi-worker``, or
        ``single-socket-fallback`` (no ``SO_REUSEPORT`` on the platform)."""
        return self._mode

    # -- request handling ----------------------------------------------

    def handle(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, bytes, str]:
        """Dispatch one request; returns (status, body, endpoint label).

        Transport-independent on purpose: the HTTP handler, the tests
        and the bench's in-process mode all call this.
        """
        split = urlsplit(path)
        parts = [p for p in split.path.split("/") if p]
        endpoint = "unknown"
        started = perf_counter()
        try:
            handler, endpoint, args = self._route(method, parts)
            params = self._parse_params(split.query)
            status, payload = handler(params, body, *args)
            # Cache-served endpoints hand back pre-rendered bytes so a
            # hit skips the JSON encoder entirely.
            response = (
                payload
                if isinstance(payload, bytes)
                else self._render(payload)
            )
        except HTTPError as exc:
            status = exc.status
            response = self._render({"error": exc.message, "status": status})
        except Exception as exc:  # genuine server bug: counted, not raised
            status = 500
            response = self._render(
                {"error": f"internal error: {exc}", "status": 500}
            )
        self.metrics.observe(
            endpoint, perf_counter() - started, error=status >= 400
        )
        return status, response, endpoint

    def _route(self, method: str, parts: list[str]):
        if parts == ["healthz"]:
            self._require(method, "GET", "/healthz")
            return self._do_healthz, "healthz", ()
        if parts == ["metrics"]:
            self._require(method, "GET", "/metrics")
            return self._do_metrics, "metrics", ()
        if parts == ["runs"]:
            self._require(method, "GET", "/runs")
            return self._do_runs, "runs", ()
        if len(parts) == 2 and parts[0] == "runs":
            self._require(method, "GET", f"/runs/{parts[1]}")
            return self._do_run_meta, "run_meta", (parts[1],)
        if len(parts) == 3 and parts[0] == "runs" and parts[2] == "patterns":
            self._require(method, "GET", f"/runs/{parts[1]}/patterns")
            return self._do_patterns, "patterns", (parts[1],)
        if parts == ["match"]:
            self._require(method, "POST", "/match")
            return self._do_match, "match", ()
        raise HTTPError(404, f"no such endpoint: /{'/'.join(parts)}")

    @staticmethod
    def _require(method: str, expected: str, what: str) -> None:
        if method != expected:
            raise HTTPError(405, f"{what} only supports {expected}")

    @staticmethod
    def _parse_params(query: str) -> dict[str, str]:
        pairs = parse_qsl(query, keep_blank_values=True)
        params: dict[str, str] = {}
        for name, value in pairs:
            if name in params:
                raise HTTPError(
                    400, f"duplicate query parameter {name!r}"
                )
            params[name] = value
        return params

    @staticmethod
    def _render(payload: Any) -> bytes:
        return (
            json.dumps(payload, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    @staticmethod
    def _no_params(params: Mapping[str, str]) -> None:
        if params:
            raise HTTPError(
                400,
                f"unexpected query parameters: {', '.join(sorted(params))}",
            )

    # -- endpoints ------------------------------------------------------

    def _do_healthz(self, params, body) -> tuple[int, dict]:
        self._no_params(params)
        active = self._active
        return 200, {
            "status": "ok",
            "active_run": active.run_id if active else None,
            "epoch": active.epoch if active else 0,
        }

    def _local_metrics_payload(self) -> dict:
        """This process's own counters (one worker's view in pool mode)."""
        payload = {
            "mode": self._mode,
            "endpoints": self.metrics.snapshot(),
            "query_cache": self._cache.stats(),
            "epoch": self._epoch,
            "active_run": self.active_run,
            "loaded_runs": sorted(self._indexes),
        }
        if self._worker_index is not None:
            payload["worker"] = self._worker_index
        return payload

    def _do_metrics(self, params, body) -> tuple[int, dict]:
        self._no_params(params)
        if self._peers is not None:
            # Worker process: merge every sibling's live counters so any
            # worker the kernel picks answers for the whole pool.
            return 200, self._peers.merged(self._local_metrics_payload())
        return 200, self._local_metrics_payload()

    def _do_runs(self, params, body) -> tuple[int, dict]:
        self._no_params(params)
        runs: list[dict[str, Any]] = []
        if self.store is not None:
            try:
                runs.extend(
                    {**info.to_dict(), "source": "store"}
                    for info in self.store.list_runs()
                )
            except StoreError as exc:
                raise HTTPError(410, f"store unavailable: {exc}") from exc
        runs.extend(self._published[run_id] for run_id in sorted(self._published))
        return 200, {"runs": runs, "active_run": self.active_run}

    def _do_run_meta(self, params, body, run_id: str) -> tuple[int, dict]:
        self._no_params(params)
        if run_id in self._published:
            meta = dict(self._published[run_id])
            meta["active"] = run_id == self.active_run
            return 200, meta
        if self.store is None:
            raise HTTPError(404, f"unknown run {run_id!r}")
        try:
            stored = self.store.get(run_id)
        except UnknownRunError as exc:
            raise HTTPError(404, str(exc)) from exc
        except StoreError as exc:
            raise HTTPError(410, str(exc)) from exc
        from dataclasses import asdict

        return 200, {
            "run_id": stored.run_id,
            "created": stored.created,
            "tags": list(stored.tags),
            "n_patterns": len(stored.patterns),
            "library_version": stored.library_version,
            "fingerprint": stored.fingerprint,
            "summary": asdict(stored.summary),
            "active": run_id == self.active_run,
        }

    def _resolve_run(self, run_id: str) -> tuple[str, int, PatternIndex]:
        """(run id, epoch, index) for a request — one consistent snapshot."""
        if run_id == "active":
            active = self._active
            if active is None:
                raise HTTPError(
                    404, "no active run; publish one or name a run id"
                )
            return active.run_id, active.epoch, active.index
        return run_id, self._epoch, self._index_of(run_id)

    def _do_patterns(self, params, body, run_id: str) -> tuple[int, dict]:
        try:
            query = Query.from_params(params)
        except QueryError as exc:
            raise HTTPError(400, str(exc)) from exc
        if query.limit is None and self.config.default_limit is not None:
            from dataclasses import replace

            query = replace(query, limit=self.config.default_limit)
        resolved_id, epoch, index = self._resolve_run(run_id)
        cache_key = None
        if self._cache.capacity:
            cache_key = ("patterns", resolved_id, epoch, query.cache_key())
            cached = self._cache.get(cache_key)
            if cached is not None:
                return 200, cached
        selected = apply_query(index, query)
        payload = {
            "run": resolved_id,
            "epoch": epoch,
            "query": query.to_params(),
            "count": len(selected),
            "patterns": [encode_entry(entry) for entry in selected],
        }
        rendered = self._render(payload)
        if cache_key is not None:
            self._cache.put(cache_key, rendered)
        return 200, rendered

    @staticmethod
    def _check_row_values(row: Mapping[str, Any], where: str = "") -> None:
        """Raise the 400 naming a row's first value that is not a string
        or number: the slow path behind ``_do_match``'s exact-type
        checks, run only once those have found an offender."""
        for name, value in row.items():
            if isinstance(value, bool) or not isinstance(
                value, (str, int, float)
            ):
                raise HTTPError(
                    400,
                    f"{where}row value for {name!r} must be a string "
                    f"or number",
                )

    def _do_match(self, params, body) -> tuple[int, bytes]:
        self._no_params(params)
        request = self._decode_body(body)
        if ("row" in request) == ("rows" in request):
            raise HTTPError(
                400, 'body must carry exactly one of "row" or "rows"'
            )
        unknown = set(request) - {"row", "rows", "run"}
        if unknown:
            raise HTTPError(
                400, f"unknown body fields: {', '.join(sorted(unknown))}"
            )
        run_ref = request.get("run", "active")
        if not isinstance(run_ref, str):
            raise HTTPError(400, '"run" must be a run id string')

        # Value types are checked before the run is resolved, so a type
        # error outranks an unknown run; one exact-type pass clears a
        # well-formed body, and only a failing one is walked again to
        # name its first offender.
        single = "row" in request
        if single:
            row = request["row"]
            if not isinstance(row, dict):
                raise HTTPError(400, 'body must carry a "row" object')
            if not _ROW_VALUE_TYPES.issuperset(map(type, row.values())):
                self._check_row_values(row)
            rows = [row]
        else:
            rows = request["rows"]
            if not isinstance(rows, list):
                raise HTTPError(
                    400, '"rows" must be an array of row objects'
                )
            if len(rows) > self.config.max_batch_rows:
                raise HTTPError(
                    400,
                    f"batch of {len(rows)} rows exceeds max_batch_rows="
                    f"{self.config.max_batch_rows}",
                )
            if not (
                _DICTS.issuperset(map(type, rows))
                and _ROW_VALUE_TYPES.issuperset(
                    map(type, chain.from_iterable(map(dict.values, rows)))
                )
            ):
                for i, row in enumerate(rows):
                    if not isinstance(row, dict):
                        raise HTTPError(
                            400, f"rows[{i}] must be a row object"
                        )
                    self._check_row_values(row, where=f"rows[{i}]: ")
        resolved_id, epoch, index = self._resolve_run(run_ref)
        # Per-epoch indexes are immutable, so a response is a pure
        # function of (run, epoch, body) and can be cached like a query.
        cache_key = None
        if self._cache.capacity:
            cache_key = _body_key(resolved_id, epoch, body)
            cached = self._cache.get(cache_key)
            if cached is not None:
                return 200, cached
        try:
            per_row = index.match_batch(rows)
        except MatchError as exc:
            raise HTTPError(400, str(exc)) from exc
        # Assembled from the index's pre-rendered fragments; the
        # single-row shape is byte-identical to ``self._render({...})``.
        head = f'{{"run":{json.dumps(resolved_id)},"epoch":{epoch},'
        if single:
            matches = per_row[0]
            tail = (
                f'"count":{len(matches)},'
                f'"matches":{index.rendered_matches(matches)}}}\n'
            )
        else:
            tail = self._render_batch(index, per_row)
        rendered = (head + tail).encode("utf-8")
        if cache_key is not None:
            self._cache.put(cache_key, rendered)
        return 200, rendered

    @staticmethod
    def _render_batch(index: PatternIndex, per_row: list[list]) -> str:
        # Dictionary-encoded batch response: each row lists the *ranks*
        # of its matching patterns, and every matched pattern's full wire
        # shape appears exactly once in "patterns" (keyed by rank as a
        # JSON string).  A row matching ~25 patterns would otherwise
        # repeat ~18 KB of identical entries per row; this keeps sustained
        # batch traffic network-bound on rows, not on duplicate JSON.
        text = index.rank_texts
        row_ranks = [
            [text[entry.rank] for entry in matches] for matches in per_row
        ]
        # The union is taken over the rank texts, whose hashes are cached.
        patterns = ",".join([
            '"%s":%s' % (rank, index.rendered_entry(int(rank)))
            for rank in sorted(set(chain.from_iterable(row_ranks)), key=int)
        ])
        results = ",".join([
            '{"count":%d,"matches":[%s]}' % (len(ranks), ",".join(ranks))
            for ranks in row_ranks
        ])
        return (
            f'"count":{len(per_row)},"patterns":{{{patterns}}},'
            f'"results":[{results}]}}\n'
        )

    def _decode_body(self, body: bytes | None) -> dict[str, Any]:
        if not body:
            raise HTTPError(400, "request body required")
        if len(body) > self.config.max_body_bytes:
            raise HTTPError(413, "request body too large")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"body is not valid JSON: {exc}") from exc
        except ValueError as exc:  # the interpreter's int digit limit
            raise HTTPError(
                400, "body holds an integer with too many digits"
            ) from exc
        except RecursionError as exc:
            raise HTTPError(400, "body nests too deeply") from exc
        if not isinstance(payload, dict):
            raise HTTPError(400, "body must be a JSON object")
        return payload

    # -- transport ------------------------------------------------------

    def start(self, _reuse_port: bool = False) -> tuple[str, int]:
        """Bind and serve; returns (host, port).

        Pass ``port=0`` in :class:`ServeConfig` to let the OS pick a free
        port (what the tests and the bench do).  With
        ``ServeConfig(workers=N)`` (N > 1) and a store, this spawns N
        ``SO_REUSEPORT`` worker processes instead of binding in-process;
        where the platform has no ``SO_REUSEPORT`` it falls back to the
        single in-process socket (recorded as ``mode`` in ``/metrics``).
        """
        if self._httpd is not None or self._pool is not None:
            raise RuntimeError("server already started")
        if self.config.workers > 1 and not _reuse_port:
            from .workers import WorkerPool, reuseport_available

            if self.store is None:
                raise RuntimeError(
                    "multi-worker serving needs a PatternStore (workers "
                    "converge on the store's latest run)"
                )
            if reuseport_available():
                self._mode = "multi-worker"
                self._pool = WorkerPool(self.store.root, self.config)
                try:
                    return self._pool.start()
                except BaseException:
                    self._pool = None
                    self._mode = "single"
                    raise
            self._mode = "single-socket-fallback"
        self._httpd = _PatternHTTPServer(
            (self.config.host, self.config.port), self, reuse_port=_reuse_port
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-pattern-server",
            daemon=True,
        )
        self._thread.start()
        return self._httpd.server_address[0], self._httpd.server_address[1]

    def serve_forever(self) -> None:
        """Blocking variant of :meth:`start` (the CLI's ``repro serve``)."""
        self.start()
        try:
            if self._pool is not None:
                self._pool.join()
            else:
                self._thread.join()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
            self._mode = "single"
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "PatternServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
