"""POST /match against a reference built from the scan and ``json.dumps``.

``PatternServer.handle("POST", "/match", body)`` takes exact-type fast
paths (one type pass per body, one ``np.nonzero`` per batch, rank texts
rendered from the index, a body-hash cache key).  This suite drives it
with hypothesis bodies, single-row and batch, and compares status and
bytes with a reference written here from :meth:`PatternIndex.match` and
``json.dumps``, with the server's error messages and their precedence:
a body error, then a row-shape or value-type error in any row (first
offender), then run resolution, then a row the run's numeric items
cannot take (first row).

Bodies hold valid rows, missing attributes, unseen labels, NaN and
Infinity, bools, nulls, nested values, integers at and beyond the float
range, non-object rows and unknown runs.  The server runs with the
cache off (``cache_size=0``) and on (256, where each body is sent twice
and the second answer must come from the cache).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.server as server_module
from repro.core.contrast import ContrastPattern
from repro.core.items import CategoricalItem, Interval, Itemset, NumericItem
from repro.serve.index import MatchError, PatternIndex
from repro.serve.query import encode_entry
from repro.serve.server import PatternServer, ServeConfig

RUN_ID = "run-ref"
MAX_BATCH_ROWS = 5
CAT_ATTRS = ("color", "shape")
LABELS = ("red", "green", "square")
NUM_ATTRS = ("x", "y")
BOUNDS = (float("-inf"), -1.0, 0.0, 0.5, 1.0, float("inf"))
HUGE_INTS = (10**400, -(10**400), 2**1024 - 2**971, 2**1024 - 2**970)


def _pattern(itemset: Itemset) -> ContrastPattern:
    return ContrastPattern(
        itemset=itemset,
        counts=(30, 10),
        group_sizes=(50, 50),
        group_labels=("A", "B"),
        level=max(1, len(itemset)),
    )


@st.composite
def itemsets(draw):
    items = []
    for attribute in draw(
        st.sets(st.sampled_from(CAT_ATTRS + NUM_ATTRS), max_size=3)
    ):
        if attribute in CAT_ATTRS:
            items.append(
                CategoricalItem(attribute, draw(st.sampled_from(LABELS)))
            )
            continue
        lo, hi = sorted(draw(st.lists(
            st.sampled_from(BOUNDS), min_size=2, max_size=2, unique=True
        )))
        items.append(NumericItem(attribute, Interval(
            lo, hi, draw(st.booleans()), draw(st.booleans())
        )))
    return Itemset(items)


VALUES = st.one_of(
    st.sampled_from(LABELS + ("unseen",)),
    st.sampled_from(BOUNDS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 2),
    st.sampled_from(HUGE_INTS),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(-2, 2), max_size=1),
)
ROWS = st.dictionaries(
    st.sampled_from(CAT_ATTRS + NUM_ATTRS + ("ignored",)), VALUES, max_size=5
)
NOT_ROWS = st.one_of(st.integers(-2, 2), st.text(max_size=2), st.none(),
                     st.lists(st.integers(-2, 2), max_size=1))
RUNS = st.sampled_from((None, "active", RUN_ID, "run-nope", 7))


@st.composite
def requests(draw):
    """A /match request object: mostly well-formed in shape, with the
    body errors the server checks first mixed in."""
    kind = draw(st.sampled_from(
        ("row", "row", "rows", "rows", "rows", "both", "extra", "neither")
    ))
    request: dict = {}
    if kind in ("row", "both", "extra"):
        request["row"] = draw(st.one_of(ROWS, ROWS, ROWS, NOT_ROWS))
    if kind in ("rows", "both"):
        request["rows"] = draw(st.one_of(
            st.lists(st.one_of(ROWS, ROWS, ROWS, ROWS, NOT_ROWS),
                     max_size=MAX_BATCH_ROWS + 1),
            st.lists(ROWS, max_size=MAX_BATCH_ROWS),
            ROWS,
        ))
    if kind == "extra":
        request["limit"] = 1
    run = draw(RUNS)
    if run is not None:
        request["run"] = run
    return request


def _render(payload) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def _error(status: int, message: str) -> tuple[int, bytes]:
    return status, _render({"error": message, "status": status})


def _value_error(row: dict, where: str) -> str | None:
    for name, value in row.items():
        if isinstance(value, bool) or not isinstance(
            value, (str, int, float)
        ):
            return f"{where}row value for {name!r} must be a string or number"
    return None


def reference(index: PatternIndex, request: dict) -> tuple[int, bytes]:
    """The response POST /match owes ``request`` against the run
    ``RUN_ID`` (epoch 1), from the reference scan."""
    if ("row" in request) == ("rows" in request):
        return _error(400, 'body must carry exactly one of "row" or "rows"')
    unknown = set(request) - {"row", "rows", "run"}
    if unknown:
        fields = ", ".join(sorted(unknown))
        return _error(400, f"unknown body fields: {fields}")
    run = request.get("run", "active")
    if not isinstance(run, str):
        return _error(400, '"run" must be a run id string')
    single = "row" in request
    if single:
        rows = [request["row"]]
        if not isinstance(rows[0], dict):
            return _error(400, 'body must carry a "row" object')
        message = _value_error(rows[0], "")
        if message:
            return _error(400, message)
    else:
        rows = request["rows"]
        if not isinstance(rows, list):
            return _error(400, '"rows" must be an array of row objects')
        if len(rows) > MAX_BATCH_ROWS:
            return _error(400, f"batch of {len(rows)} rows exceeds "
                               f"max_batch_rows={MAX_BATCH_ROWS}")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                return _error(400, f"rows[{i}] must be a row object")
            message = _value_error(row, f"rows[{i}]: ")
            if message:
                return _error(400, message)
    if run not in ("active", RUN_ID):
        return _error(404, f"unknown run {run!r}")
    matched = []
    for i, row in enumerate(rows):
        try:
            matched.append(index.match(row))
        except MatchError as exc:
            return _error(400, f"row {i}: {exc}")
    head = {"run": RUN_ID, "epoch": 1}
    if single:
        return 200, _render({
            **head,
            "count": len(matched[0]),
            "matches": [encode_entry(entry) for entry in matched[0]],
        })
    ranks = sorted({entry.rank for entries in matched for entry in entries})
    return 200, _render({
        **head,
        "count": len(rows),
        "patterns": {
            str(rank): encode_entry(index.entries[rank]) for rank in ranks
        },
        "results": [
            {"count": len(entries), "matches": [e.rank for e in entries]}
            for entries in matched
        ],
    })


def _server(patterns, cache_size: int) -> PatternServer:
    server = PatternServer(None, ServeConfig(
        port=0, cache_size=cache_size, max_batch_rows=MAX_BATCH_ROWS
    ))
    server.publish_patterns(patterns, run_id=RUN_ID)
    return server


@pytest.mark.parametrize("cache_size", [0, 256])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(
    sets=st.lists(itemsets(), min_size=1, max_size=6),
    bodies=st.lists(requests(), min_size=1, max_size=4),
)
def test_match_agrees_with_reference(cache_size, sets, bodies):
    patterns = [_pattern(itemset) for itemset in sets]
    server = _server(patterns, cache_size)
    index = PatternIndex(patterns)
    for request in bodies:
        body = json.dumps(request).encode()
        expected = reference(index, request)
        for _ in range(2 if cache_size else 1):
            status, response, endpoint = server.handle("POST", "/match", body)
            assert endpoint == "match"
            assert (status, response) == expected, request
    stats = server._cache.stats()
    if cache_size == 0:
        assert stats == {"size": 0, "capacity": 0, "hits": 0, "misses": 0}
    else:
        # the first send of each distinct 200 body was stored, and every
        # later send of it was served from the cache
        ok = [json.dumps(r) for r in bodies if reference(index, r)[0] == 200]
        assert stats["hits"] == 2 * len(ok) - len(set(ok))
        assert stats["misses"] >= len(set(ok))


def test_disabled_cache_builds_no_key(monkeypatch):
    """At ``cache_size=0`` no request hashes its body, and /metrics
    reports a cache that counted nothing."""

    def no_key(*args):
        raise AssertionError("a disabled cache built a key")

    monkeypatch.setattr(server_module, "_body_key", no_key)
    patterns = [
        _pattern(Itemset([NumericItem("x", Interval(0.0, 1.0))])),
        _pattern(Itemset([CategoricalItem("color", "red")])),
    ]
    server = _server(patterns, cache_size=0)
    for request in (
        {"row": {"x": 0.5}},
        {"rows": [{"x": 0.5}, {"color": "red"}]},
        {"row": {"x": 0.5}, "run": RUN_ID},
    ):
        for _ in range(2):
            status, _, _ = server.handle(
                "POST", "/match", json.dumps(request).encode()
            )
            assert status == 200
    status, _, _ = server.handle("GET", f"/runs/{RUN_ID}/patterns", None)
    assert status == 200
    status, metrics, _ = server.handle("GET", "/metrics", None)
    assert status == 200
    assert json.loads(metrics)["query_cache"] == {
        "size": 0, "capacity": 0, "hits": 0, "misses": 0,
    }


def test_enabled_cache_keys_by_exact_body():
    """Two bodies of the same rows are two entries; resending one hits."""
    patterns = [_pattern(Itemset([NumericItem("x", Interval(0.0, 1.0))]))]
    server = _server(patterns, cache_size=256)
    compact = b'{"row":{"x":0.5}}'
    spaced = b'{"row": {"x": 0.5}}'
    responses = [
        server.handle("POST", "/match", body)[:2]
        for body in (compact, spaced, compact)
    ]
    assert responses[0] == responses[1] == responses[2]
    assert responses[0][0] == 200
    stats = server._cache.stats()
    assert (stats["size"], stats["hits"], stats["misses"]) == (2, 1, 2)
