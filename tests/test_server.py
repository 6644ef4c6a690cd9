"""PatternServer: REST behaviour, parity, hot swap, concurrency.

The hard guarantees under test:

* responses to every query shape are byte-identical to filtering the
  in-memory ``MiningResult`` directly (same evaluator, same encoder);
* a client cannot induce a 5xx — malformed input maps to 4xx;
* under ≥8 threads of mixed ``/match`` traffic with concurrent hot
  swaps, every response is computed against exactly one run version;
* a corrupt store run is quarantined and reported, the server survives.
"""

import json
import socket
import threading
import http.client

import numpy as np
import pytest

from repro import Attribute, ContrastSetMiner, Dataset, MinerConfig, Schema
from repro.core.contrast import ContrastPattern
from repro.core.items import CategoricalItem, Interval, Itemset, NumericItem
from repro.serve.index import PatternIndex, row_from_dataset
from repro.serve.query import Query, apply_query, encode_entry
from repro.serve.server import PatternServer, ServeConfig
from repro.serve.store import PatternStore


@pytest.fixture(scope="module")
def mined():
    rng = np.random.default_rng(12345)
    n = 600
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    color = rng.integers(0, 3, n)
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    dataset = Dataset(
        schema, {"x": x, "color": color}, group, ["A", "B"]
    )
    result = ContrastSetMiner(MinerConfig(max_tree_depth=2)).mine(dataset)
    assert result.patterns
    return dataset, result


@pytest.fixture
def served(tmp_path, mined):
    dataset, result = mined
    store = PatternStore(tmp_path / "store")
    run_id = store.put(result, tags=("test",))
    server = PatternServer(store, ServeConfig(port=0))
    server.publish_run(run_id)
    host, port = server.start()
    yield dataset, result, store, run_id, server, host, port
    server.stop()


def _get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _post(host, port, path, body):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST",
            path,
            body=body if isinstance(body, bytes) else json.dumps(body),
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, served):
        _, _, _, run_id, _, host, port = served
        status, body = _get(host, port, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["active_run"] == run_id

    def test_runs_listing(self, served):
        _, _, _, run_id, _, host, port = served
        status, body = _get(host, port, "/runs")
        payload = json.loads(body)
        assert status == 200
        assert [run["run_id"] for run in payload["runs"]] == [run_id]
        assert payload["active_run"] == run_id

    def test_run_meta_carries_summary(self, served):
        _, result, _, run_id, _, host, port = served
        status, body = _get(host, port, f"/runs/{run_id}")
        payload = json.loads(body)
        assert status == 200
        assert payload["n_patterns"] == len(result.patterns)
        assert payload["summary"]["n_rows"] == result.dataset.n_rows
        assert payload["active"] is True

    def test_metrics_counts_requests(self, served):
        _, _, _, _, _, host, port = served
        _get(host, port, "/healthz")
        _get(host, port, "/healthz")
        status, body = _get(host, port, "/metrics")
        payload = json.loads(body)
        assert status == 200
        assert payload["endpoints"]["healthz"]["requests"] >= 2
        assert "query_cache" in payload

    def test_match_against_active_run(self, served):
        dataset, result, _, run_id, _, host, port = served
        row = row_from_dataset(dataset, 0)
        status, body = _post(host, port, "/match", {"row": row})
        payload = json.loads(body)
        assert status == 200
        assert payload["run"] == run_id
        expected = [
            p.itemset
            for p in result.patterns
            if bool(p.itemset.cover(dataset)[0])
        ]
        got = [
            entry["description"] for entry in payload["matches"]
        ]
        assert got == [str(itemset) for itemset in expected]

    def test_query_cache_serves_identical_bytes(self, served):
        _, _, _, run_id, server, host, port = served
        path = f"/runs/{run_id}/patterns?min_diff=0.2&limit=3"
        status1, body1 = _get(host, port, path)
        status2, body2 = _get(host, port, path)
        assert status1 == status2 == 200
        assert body1 == body2
        assert server._cache.stats()["hits"] >= 1


class TestGoldenParity:
    """Server bytes == direct MiningResult filtering, every query shape."""

    QUERIES = [
        "",
        "limit=5",
        "min_diff=0.2",
        "min_pr=0.5&limit=3",
        "sort=support_difference",
        "sort=p_value&order=asc",
        "sort=surprising&min_surprising=0.05",
        "max_level=1&sort=level&order=asc",
    ]

    def test_patterns_byte_identical(self, served):
        _, result, _, run_id, _, host, port = served
        for raw in self.QUERIES:
            status, body = _get(
                host, port, f"/runs/{run_id}/patterns?{raw}"
            )
            assert status == 200, body
            payload = json.loads(body)
            query = Query.from_params(
                dict(p.split("=") for p in raw.split("&") if p)
            )
            index = PatternIndex(result.patterns, result.interests)
            expected = [
                encode_entry(e) for e in apply_query(index, query)
            ]
            assert json.dumps(payload["patterns"]) == json.dumps(expected)

    def test_match_byte_identical(self, served):
        dataset, result, _, run_id, _, host, port = served
        index = PatternIndex(result.patterns, result.interests)
        for i in (0, 17, 123, 599):
            row = row_from_dataset(dataset, i)
            status, body = _post(host, port, "/match", {"row": row})
            assert status == 200
            payload = json.loads(body)
            expected = [encode_entry(e) for e in index.match(row)]
            assert json.dumps(payload["matches"]) == json.dumps(expected)


class TestValidation:
    """Nothing a client sends may produce a 5xx."""

    def test_unknown_run_404(self, served):
        *_, host, port = served
        status, body = _get(host, port, "/runs/run-nope/patterns")
        assert status == 404
        assert "run-nope" in json.loads(body)["error"]

    def test_unknown_endpoint_404(self, served):
        *_, host, port = served
        assert _get(host, port, "/frobnicate")[0] == 404

    def test_bad_query_param_400(self, served):
        _, _, _, run_id, _, host, port = served
        status, body = _get(
            host, port, f"/runs/{run_id}/patterns?bogus=1"
        )
        assert status == 400
        assert "bogus" in json.loads(body)["error"]

    def test_bad_number_400(self, served):
        _, _, _, run_id, _, host, port = served
        status, _ = _get(
            host, port, f"/runs/{run_id}/patterns?min_diff=lots"
        )
        assert status == 400

    def test_duplicate_param_400(self, served):
        _, _, _, run_id, _, host, port = served
        status, _ = _get(
            host, port, f"/runs/{run_id}/patterns?limit=1&limit=2"
        )
        assert status == 400

    def test_non_json_body_400(self, served):
        *_, host, port = served
        assert _post(host, port, "/match", b"not json")[0] == 400

    def test_missing_row_400(self, served):
        *_, host, port = served
        assert _post(host, port, "/match", {"nope": 1})[0] == 400

    def test_bad_row_value_400(self, served):
        *_, host, port = served
        status, _ = _post(
            host, port, "/match", {"row": {"x": [1, 2]}}
        )
        assert status == 400

    def test_non_numeric_for_interval_400(self, served):
        *_, host, port = served
        status, _ = _post(
            host, port, "/match", {"row": {"x": "hot"}}
        )
        assert status == 400

    def test_wrong_method_405(self, served):
        *_, host, port = served
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("DELETE", "/healthz")
            assert conn.getresponse().status == 405
        finally:
            conn.close()

    def test_match_without_active_run_404(self, tmp_path):
        server = PatternServer(
            PatternStore(tmp_path / "empty"), ServeConfig(port=0)
        )
        host, port = server.start()
        try:
            status, body = _post(host, port, "/match", {"row": {}})
            assert status == 404
            assert "no active run" in json.loads(body)["error"]
        finally:
            server.stop()

    def test_hostile_inputs_never_500(self, served):
        *_, host, port = served
        hostile = [
            lambda: _get(host, port, "/runs/%00weird/patterns"),
            lambda: _post(host, port, "/match", b"\xff\xfe garbage"),
            lambda: _get(host, port, "/runs//patterns"),
            lambda: _get(host, port, "/healthz?noise=1"),
            lambda: _post(host, port, "/match", {"row": {}, "x": 1}),
            lambda: _post(
                host, port, "/match", {"row": {"x": 0.1}, "run": 7}
            ),
            # integers beyond the float range, and past the parser's
            # digit limit; nesting past the parser's recursion limit
            lambda: _post(host, port, "/match", {"row": {"x": 10**400}}),
            lambda: _post(
                host, port, "/match", {"rows": [{}, {"x": -(10**400)}]}
            ),
            lambda: _post(
                host, port, "/match", b'{"row": {"x": 1' + b"0" * 5000 + b"}}"
            ),
            lambda: _post(host, port, "/match", b"[" * 100_000),
            lambda: _post(
                host, port, "/match", b'{"row": {"x": ' + b"[" * 100_000
            ),
        ]
        for attack in hostile:
            status, _ = attack()
            assert 400 <= status < 500, status

    def test_integer_beyond_float_range_400(self, served):
        *_, host, port = served
        status, body = _post(host, port, "/match", {"row": {"x": 10**400}})
        assert status == 400
        assert json.loads(body)["error"] == (
            "row 0: attribute 'x' is continuous; "
            "row value is an integer beyond the float range"
        )
        # only a continuous attribute converts its value to a float
        status, _ = _post(host, port, "/match", {"row": {"color": 10**400}})
        assert status == 200

    @pytest.mark.parametrize("length", ["abc", "-5", "1_0", "+3"])
    def test_malformed_content_length_400(self, served, length):
        *_, host, port = served
        request = (
            f"POST /match HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request.encode("ascii"))
            response = b""
            while chunk := sock.recv(65536):  # the server hangs up
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == b"400"
        assert json.loads(body) == {
            "error": "malformed Content-Length header",
            "status": 400,
        }

    def test_oversized_body_413_is_not_read_as_a_request(self, served):
        """The unread body of a rejected request must not be answered as
        the next request on the connection."""
        *_, host, port = served
        smuggled = f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n"
        request = (
            f"POST /match HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {(1 << 20) + 1}\r\n\r\n{smuggled}"
        )
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request.encode("ascii"))
            response = b""
            while chunk := sock.recv(65536):  # the server hangs up
                response += chunk
        assert response.split(b" ", 2)[1] == b"413"
        assert response.count(b"HTTP/1.1 ") == 1

    def test_chunked_body_411_is_not_read_as_a_request(self, served):
        """A chunked POST is refused with one JSON 411 and the server
        hangs up: neither its chunk lines nor a request pipelined
        behind it are answered."""
        *_, host, port = served
        body = json.dumps({"row": {"x": 0.5}}).encode("ascii")
        request = (
            f"POST /match HTTP/1.1\r\nHost: {host}\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        ).encode("ascii")
        request += b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        request += f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode(
            "ascii"
        )
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(65536):  # the server hangs up
                response += chunk
        assert response.count(b"HTTP/1.1 ") == 1
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == b"411"
        assert b"Connection: close" in head
        assert json.loads(payload) == {
            "error": "Transfer-Encoding is not supported; "
                     "send a Content-Length",
            "status": 411,
        }


class TestCorruptRunServing:
    def test_corrupt_run_quarantined_not_fatal(self, tmp_path, mined):
        dataset, result = mined
        store = PatternStore(tmp_path / "store")
        bad_id = store.put(result)
        good_id = store.put(result)
        # corrupt the first run on disk
        patterns = store.root / "runs" / bad_id / "patterns.jsonl"
        patterns.write_bytes(b"garbage\n")
        server = PatternServer(store, ServeConfig(port=0))
        server.publish_run(good_id)
        host, port = server.start()
        try:
            status, body = _get(host, port, f"/runs/{bad_id}/patterns")
            assert status == 410
            assert "quarantined" in json.loads(body)["error"]
            # the corrupt run is now gone from the listing...
            status, body = _get(host, port, "/runs")
            assert [r["run_id"] for r in json.loads(body)["runs"]] == [
                good_id
            ]
            # ...and the good run still serves
            assert _get(
                host, port, f"/runs/{good_id}/patterns?limit=1"
            )[0] == 200
        finally:
            server.stop()


def _hand_built_run(color_value: str, lo: float, hi: float):
    """A tiny distinguishable run: one categorical + one numeric pattern."""
    categorical = ContrastPattern(
        itemset=Itemset([CategoricalItem("color", color_value)]),
        counts=(80, 20),
        group_sizes=(100, 100),
        group_labels=("A", "B"),
        level=1,
    )
    numeric = ContrastPattern(
        itemset=Itemset(
            [NumericItem("x", Interval(lo, hi, True, True))]
        ),
        counts=(10, 90),
        group_sizes=(100, 100),
        group_labels=("A", "B"),
        level=1,
    )
    patterns = [categorical, numeric]
    interests = {p.itemset: p.support_difference for p in patterns}
    return patterns, interests


class TestHotSwapConcurrency:
    """≥8 client threads of /match while a publisher hot-swaps runs.

    Every response must be internally consistent: the matches it carries
    must be exactly what the run version it names would produce — proof
    that a request never observes half of one run and half of another.
    """

    N_THREADS = 8
    REQUESTS_PER_THREAD = 60

    def test_responses_come_from_exactly_one_version(self):
        run_a, interests_a = _hand_built_run("red", 0.0, 0.5)
        run_b, interests_b = _hand_built_run("blue", 0.5, 1.0)
        row = {"color": "red", "x": 0.25}
        # expected matches per run for this row, via the same encoder
        expected = {
            "run-a": [
                encode_entry(e)
                for e in PatternIndex(run_a, interests_a).match(row)
            ],
            "run-b": [
                encode_entry(e)
                for e in PatternIndex(run_b, interests_b).match(row)
            ],
        }
        # sanity: the two versions are distinguishable by their matches
        assert expected["run-a"] != expected["run-b"]

        server = PatternServer(config=ServeConfig(port=0))
        server.publish_patterns(run_a, interests_a, run_id="run-a")
        host, port = server.start()
        stop = threading.Event()
        failures: list = []

        def swapper():
            flip = False
            while not stop.is_set():
                if flip:
                    server.publish_patterns(
                        run_a, interests_a, run_id="run-a"
                    )
                else:
                    server.publish_patterns(
                        run_b, interests_b, run_id="run-b"
                    )
                flip = not flip

        def client():
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for _ in range(self.REQUESTS_PER_THREAD):
                    conn.request("POST", "/match", json.dumps({"row": row}))
                    response = conn.getresponse()
                    body = response.read()
                    if response.status != 200:
                        failures.append(("status", response.status, body))
                        return
                    payload = json.loads(body)
                    claimed = payload["run"]
                    if claimed not in expected:
                        failures.append(("run", claimed))
                        return
                    if payload["matches"] != expected[claimed]:
                        failures.append(("torn", claimed, payload))
                        return
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(("exception", repr(exc)))
            finally:
                conn.close()

        swap_thread = threading.Thread(target=swapper, daemon=True)
        clients = [
            threading.Thread(target=client, daemon=True)
            for _ in range(self.N_THREADS)
        ]
        try:
            swap_thread.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            stop.set()
            swap_thread.join(timeout=10)
            server.stop()
        assert not failures, failures[:3]
        # both versions actually served during the hammer window
        snapshot = server.metrics.snapshot()
        assert snapshot["match"]["requests"] == (
            self.N_THREADS * self.REQUESTS_PER_THREAD
        )
        assert snapshot["match"]["errors"] == 0


class TestStreamingPublish:
    def test_streaming_refresh_hot_swaps_server(self, mined):
        from repro.streaming.miner import StreamingContrastMiner

        dataset, _ = mined
        server = PatternServer(config=ServeConfig(port=0))
        miner = StreamingContrastMiner(
            dataset.schema,
            dataset.group_labels,
            MinerConfig(max_tree_depth=1),
            window_size=700,
            refresh_every=200,
            min_rows=100,
            publish_to=server,
        )
        columns = {
            name: dataset.column(name) for name in dataset.schema.names
        }
        update = miner.update(columns, dataset.group_codes)
        assert update.refreshed
        assert server.active_run == "stream-000001"
        assert server.epoch == 1
        assert miner.failed_publishes == 0
        # the active index is queryable without the server running HTTP
        index = server._active.index
        assert len(index) == len(update.patterns)

    def test_publish_failures_counted_not_raised(self, mined):
        from repro.streaming.miner import StreamingContrastMiner

        dataset, _ = mined

        class ExplodingServer:
            def publish_result(self, result, run_id=None):
                raise RuntimeError("publication broke")

        miner = StreamingContrastMiner(
            dataset.schema,
            dataset.group_labels,
            MinerConfig(max_tree_depth=1),
            window_size=700,
            refresh_every=200,
            min_rows=100,
            publish_to=ExplodingServer(),
        )
        columns = {
            name: dataset.column(name) for name in dataset.schema.names
        }
        update = miner.update(columns, dataset.group_codes)
        assert update.refreshed  # the stream survived
        assert miner.failed_publishes == 1


class TestBatchMatch:
    """POST /match with "rows": row-for-row agreement with single calls.

    The batch response is dictionary-encoded: ``results[i].matches``
    lists pattern *ranks* and ``patterns`` carries each matched
    pattern's full wire shape exactly once, keyed by rank.  Expanding a
    row's ranks through the table must reproduce the single-row call's
    ``matches`` byte-for-byte.
    """

    def test_batch_agrees_with_single_calls(self, served):
        dataset, _, _, run_id, _, host, port = served
        rows = [row_from_dataset(dataset, i) for i in range(40)]
        singles = []
        for row in rows:
            status, body = _post(host, port, "/match", {"row": row})
            assert status == 200, body
            singles.append(json.loads(body))
        status, body = _post(host, port, "/match", {"rows": rows})
        assert status == 200, body
        payload = json.loads(body)
        assert payload["run"] == run_id
        assert payload["count"] == len(rows)
        assert len(payload["results"]) == len(rows)
        table = payload["patterns"]
        for single, batched in zip(singles, payload["results"]):
            expanded = [table[str(rank)] for rank in batched["matches"]]
            assert expanded == single["matches"]
            assert batched["count"] == single["count"]
        # the table carries exactly the union of matched ranks
        assert set(table) == {
            str(rank)
            for res in payload["results"]
            for rank in res["matches"]
        }

    def test_batch_response_is_cached(self, served):
        dataset, _, _, _, server, host, port = served
        rows = [row_from_dataset(dataset, i) for i in (3, 5)]
        _, body1 = _post(host, port, "/match", {"rows": rows})
        hits_before = server._cache.stats()["hits"]
        _, body2 = _post(host, port, "/match", {"rows": rows})
        assert body1 == body2
        assert server._cache.stats()["hits"] > hits_before

    def test_row_and_rows_together_400(self, served):
        *_, host, port = served
        status, body = _post(
            host, port, "/match", {"row": {"x": 0.1}, "rows": []}
        )
        assert status == 400
        assert "exactly one" in json.loads(body)["error"]

    def test_rows_not_an_array_400(self, served):
        *_, host, port = served
        status, body = _post(host, port, "/match", {"rows": {"x": 1}})
        assert status == 400
        assert "array" in json.loads(body)["error"]

    def test_rows_element_not_object_400(self, served):
        *_, host, port = served
        status, body = _post(
            host, port, "/match", {"rows": [{"x": 0.1}, 7]}
        )
        assert status == 400
        assert "rows[1]" in json.loads(body)["error"]

    def test_bad_row_in_batch_names_the_row(self, served):
        *_, host, port = served
        status, body = _post(
            host, port, "/match", {"rows": [{"x": 0.1}, {"x": "hot"}]}
        )
        assert status == 400
        assert "row 1" in json.loads(body)["error"]

    def test_oversized_batch_400(self, mined, tmp_path):
        dataset, result = mined
        store = PatternStore(tmp_path / "store")
        run_id = store.put(result)
        server = PatternServer(
            store, ServeConfig(port=0, max_batch_rows=4)
        )
        server.publish_run(run_id)
        host, port = server.start()
        try:
            rows = [row_from_dataset(dataset, i) for i in range(5)]
            status, body = _post(host, port, "/match", {"rows": rows})
            assert status == 400
            assert "max_batch_rows" in json.loads(body)["error"]
            assert _post(
                host, port, "/match", {"rows": rows[:4]}
            )[0] == 200
        finally:
            server.stop()

    def test_empty_batch_ok(self, served):
        *_, host, port = served
        status, body = _post(host, port, "/match", {"rows": []})
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 0
        assert payload["results"] == []


class TestDeterministicMatchErrors:
    """Row validation happens before any pattern is scanned.

    Regression for the order-dependence bug: ``_covers`` used to raise
    mid-scan, so whether a bad row produced a 400 or a partial result
    depended on which pattern the scan hit first.  Now the row is
    validated once up front, so the same bad row fails identically no
    matter how the patterns are ordered.
    """

    def _indexes_in_both_orders(self):
        patterns, interests = _hand_built_run("red", 0.0, 0.5)
        forward = PatternIndex(patterns, interests)
        backward = PatternIndex(list(reversed(patterns)), interests)
        return forward, backward

    def test_bad_numeric_value_raises_in_any_pattern_order(self):
        from repro.serve.index import MatchError

        forward, backward = self._indexes_in_both_orders()
        # 'color' matches fine; 'x' carries a non-number.  With the old
        # mid-scan validation the backward order (numeric pattern last)
        # returned the categorical match before blowing up.
        bad = {"color": "red", "x": "hot"}
        messages = []
        for index in (forward, backward):
            with pytest.raises(MatchError) as excinfo:
                index.match(bad)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "'x'" in messages[0]

    def test_batch_error_names_first_bad_row(self):
        from repro.serve.index import MatchError

        forward, _ = self._indexes_in_both_orders()
        rows = [{"color": "red", "x": 0.2}, {"x": True}, {"x": "bad"}]
        with pytest.raises(MatchError) as excinfo:
            forward.match_batch(rows)
        assert str(excinfo.value).startswith("row 1: ")

    def test_missing_attribute_is_no_match_not_error(self):
        forward, backward = self._indexes_in_both_orders()
        row = {"color": "red"}  # no 'x' at all: fine, just no coverage
        assert [e.pattern for e in forward.match(row)] == [
            e.pattern for e in backward.match(row)
        ]
        assert len(forward.match(row)) == 1
