"""The HTTP/1.1 transport under ``repro.service.server``, over raw sockets.

Well-formed traffic — keep-alive, pipelining, ``Connection: close``,
HTTP/1.0, ``Expect: 100-continue`` — and hostile traffic: every
malformed, oversize or truncated request must end in a 4xx/5xx other
than 500, or a clean close, within a bounded time, and leave the server
answering ``/healthz`` with ``service.server.errors`` unmoved.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.service import TemporalStore, serve

from tests.test_service_store import fixture_graph

#: Seconds any one exchange may take, hostile or not.
BOUND = 1.0
QUERY = json.dumps({"query": "SELECT ?o {UC president ?o ?t}"}).encode()
#: A FILTER nested 400 parentheses deep, in under 1 kB of query.
DEEP_QUERY = json.dumps({"query": "SELECT ?o {UC president ?o ?t FILTER("
                         + "(" * 400 + "?o = 1" + ")" * 400 + ")}"}).encode()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with TemporalStore(tmp_path_factory.mktemp("http")) as store:
        store.load_dataset(fixture_graph())
        svc = serve(store, port=0, max_inflight=4, request_timeout=10.0)
        thread = threading.Thread(target=svc.serve_forever, daemon=True)
        thread.start()
        yield svc
        svc.shutdown()
        thread.join(timeout=10)
        svc.server_close()


@pytest.fixture()
def errors_unmoved(service):
    """Fail the test if it moved ``service.server.errors`` or left the
    server unable to answer ``/healthz``."""
    errors = metrics.counter("service.server.errors")
    before = errors.value
    yield
    assert errors.value == before
    with connect(service) as sock:
        sock.sendall(get("/healthz"))
        status, _, body = read_response(sock.makefile("rb"))
    assert status == 200 and json.loads(body)["status"] == "ok"


def connect(service) -> socket.socket:
    return socket.create_connection(("127.0.0.1", service.port),
                                    timeout=BOUND)


def get(path: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    return "\r\n".join([f"GET {path} {version}", *headers, "", ""]).encode()


def post(path: str, body: bytes, *headers: str) -> bytes:
    head = [f"POST {path} HTTP/1.1", f"Content-Length: {len(body)}",
            *headers, "", ""]
    return "\r\n".join(head).encode() + body


def read_response(reader):
    """``(status, headers, body)`` of the next response on ``reader``, or
    None when the server closed the connection instead."""
    try:
        line = reader.readline()
    except ConnectionResetError:
        return None
    if not line:
        return None
    status = int(line.split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def exchange(service, data: bytes):
    """Send ``data``, half-close, and read until the server closes:
    ``[(status, headers, body), ...]``, within :data:`BOUND` seconds."""
    started = time.monotonic()
    responses = []
    with connect(service) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except ConnectionError:
            pass  # refused before it read everything: still must answer
        reader = sock.makefile("rb")
        while (response := read_response(reader)) is not None:
            responses.append(response)
    assert time.monotonic() - started < BOUND
    return responses


# ------------------------------------------------------------ well-formed


class TestKeepAlive:
    def test_fifty_requests_on_one_connection(self, service, errors_unmoved):
        with connect(service) as sock:
            reader = sock.makefile("rb")
            for i in range(50):
                request = (get("/healthz") if i % 2
                           else post("/query", QUERY))
                sock.sendall(request)
                status, headers, body = read_response(reader)
                assert status == 200 and "connection" not in headers
                assert json.loads(body)
            sock.sendall(get("/healthz"))
            assert read_response(reader)[0] == 200

    def test_pipelined_requests_answer_in_order(self, service):
        responses = exchange(service, (post("/query", QUERY) + get("/nope"))
                             * 10)
        assert [r[0] for r in responses] == [200, 404] * 10

    def test_connection_close_is_honoured(self, service):
        responses = exchange(service, get("/healthz", "Connection: close")
                             + get("/healthz"))
        assert len(responses) == 1
        status, headers, _ = responses[0]
        assert status == 200 and headers["connection"] == "close"

    @pytest.mark.parametrize("keep_alive, answered", [(False, 1), (True, 2)])
    def test_http_1_0_closes_unless_asked_to_keep_alive(
            self, service, keep_alive, answered):
        extra = ("Connection: keep-alive",) if keep_alive else ()
        request = get("/healthz", *extra, version="HTTP/1.0")
        assert [r[0] for r in exchange(service, request * 2)] \
            == [200] * answered

    def test_expect_100_continue(self, service):
        head = post("/query", QUERY, "Expect: 100-continue")[:-len(QUERY)]
        with connect(service) as sock:
            sock.sendall(head)
            reader = sock.makefile("rb")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(QUERY)
            status, _, body = read_response(reader)
        assert status == 200 and json.loads(body)["variables"] == ["o"]

    def test_repeated_header_fields_join(self, service):
        (response,) = exchange(service, get(
            "/metrics", "Accept: application/json", "Accept: text/plain",
            "Connection: close"))
        assert response[0] == 200
        assert response[1]["content-type"].startswith("text/plain")


# ----------------------------------------------------------------- hostile

HOSTILE = {
    "garbage bytes": (b"\x00\xff\x13 garbage \x7f\r\n\r\n", 400),
    "truncated request line": (b"GET /heal", 400),
    "request line without a version": (b"GET /healthz\r\n\r\n", 400),
    "malformed version": (get("/healthz", version="HTTP/one"), 400),
    "HTTP/2.0": (get("/healthz", version="HTTP/2.0"), 505),
    "unknown method": (b"BREW /pot HTTP/1.1\r\n\r\n", 501),
    "70 KiB request line": (get("/" + "a" * 70 * 1024), 414),
    "101 headers": (get("/healthz", *(f"X-{i}: {i}" for i in range(101))),
                    431),
    "70 KiB header line": (get("/healthz", "X-Big: " + "b" * 70 * 1024), 431),
    "header without a colon": (get("/healthz", "no colon here"), 400),
    "folded header": (get("/healthz", "X-A: 1", " folded"), 400),
    "Content-Length abc": (post("/query", QUERY).replace(
        f"Content-Length: {len(QUERY)}".encode(), b"Content-Length: abc"),
        400),
    "Content-Length -1": (post("/query", QUERY).replace(
        f"Content-Length: {len(QUERY)}".encode(), b"Content-Length: -1"),
        400),
    "Content-Length above the cap": (post("/query", b"").replace(
        b"Content-Length: 0", b"Content-Length: 67108865"), 413),
    "Content-Length of 5000 digits": (post("/query", b"").replace(
        b"Content-Length: 0", b"Content-Length: " + b"9" * 5000), 413),
    "conflicting Content-Lengths": (post("/query", QUERY, "Content-Length: 1"),
                                    400),
    "Transfer-Encoding: chunked": (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n", 501),
    "body shorter than declared, then EOF": (
        post("/query", QUERY)[:-5], None),
    "nothing at all": (b"", None),
    "blank line": (b"\r\n", None),
}


@pytest.mark.parametrize("data, status", HOSTILE.values(), ids=HOSTILE)
def test_hostile_request_is_answered_or_closed(
        service, errors_unmoved, data, status):
    responses = exchange(service, data)
    if status is None:
        assert responses == []
    else:
        assert [r[0] for r in responses] == [status]
        assert responses[0][1]["connection"] == "close"
        assert json.loads(responses[0][2])["error"]


def test_refusal_closes_only_its_own_connection(service, errors_unmoved):
    with connect(service) as healthy:
        reader = healthy.makefile("rb")
        healthy.sendall(get("/healthz"))
        assert read_response(reader)[0] == 200
        assert exchange(service, b"BREW /pot HTTP/1.1\r\n\r\n")[0][0] == 501
        healthy.sendall(get("/healthz"))
        assert read_response(reader)[0] == 200


def test_negative_content_length_answers_without_waiting_for_eof(
        service, errors_unmoved):
    """``rfile.read(-1)`` used to read until EOF, so a client that kept
    its end open held the connection thread with no answer."""
    with connect(service) as sock:
        sock.sendall(b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
                     + QUERY)
        status, headers, _ = read_response(sock.makefile("rb"))
    assert status == 400 and headers["connection"] == "close"


def test_deep_filter_is_a_bad_request_not_an_internal_error(
        service, errors_unmoved):
    """Parsing it used to raise RecursionError, which the handler's
    last-resort boundary turned into a 500."""
    assert len(json.loads(DEEP_QUERY)["query"]) < 1024
    (response,) = exchange(service, post("/query", DEEP_QUERY,
                                         "Connection: close"))
    status, _, body = response
    assert status == 400
    assert "nested deeper than 64 levels at offset" in json.loads(body)["error"]


# --------------------------------------------------------- /debug/* listings

LISTINGS = {"/debug/traces": "traces", "/debug/events": "events",
            "/debug/workload": "shapes"}
BAD_LIMITS = {"zero": "0", "minus one": "-1", "minus two": "-2",
              "a word": "abc", "a fraction": "1.5", "5000 digits": "9" * 5000}


@pytest.mark.parametrize("limit", BAD_LIMITS.values(), ids=BAD_LIMITS)
@pytest.mark.parametrize("path", LISTINGS)
def test_debug_listing_refuses_a_limit_below_one(
        service, errors_unmoved, path, limit):
    """``limit=0`` used to list the whole trace ring, a negative limit
    dropped the oldest traces or the last workload shape, and
    ``/debug/events`` answered ``[]`` to both."""
    exchange(service, post("/query", QUERY, "Connection: close"))
    (response,) = exchange(service, get(f"{path}?limit={limit}",
                                        "Connection: close"))
    assert response[0] == 400
    assert "'limit'" in json.loads(response[2])["error"]


@pytest.mark.parametrize("path", LISTINGS)
def test_debug_listing_honours_a_limit_of_one(service, errors_unmoved, path):
    for _ in range(3):
        exchange(service, post("/query", QUERY, "Connection: close"))
    (response,) = exchange(service, get(f"{path}?limit=1",
                                        "Connection: close"))
    assert response[0] == 200
    assert len(json.loads(response[2])[LISTINGS[path]]) <= 1


def test_debug_profile_is_gone(service, errors_unmoved):
    (response,) = exchange(service, get("/debug/profile?seconds=1",
                                        "Connection: close"))
    assert response[0] == 404


_METHODS = st.sampled_from([b"GET", b"POST", b"PUT", b"", b"G\x00T"])
_TARGETS = st.sampled_from([b"/healthz", b"/query", b"/update", b"*", b""])
_VERSIONS = st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0",
                             b"HTTP/1.", b"http/1.1", b""])
_HEADERS = st.lists(st.one_of(
    st.sampled_from([b"Content-Length: 3", b"Content-Length: -7",
                     b"Content-Length: 1e3", b"Transfer-Encoding: gzip",
                     b"Expect: 100-continue", b"Connection: close",
                     b"Connection: keep-alive", b": empty-name",
                     b" leading-space: 1"]),
    st.binary(max_size=40),
), max_size=8)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda method, target, version, headers, body: b"\r\n".join(
            [b" ".join([method, target, version]), *headers, b""]) + body,
        _METHODS, _TARGETS, _VERSIONS, _HEADERS, st.binary(max_size=40)),
))
def test_fuzzed_requests_never_answer_500(service, errors_unmoved, data):
    for status, _, _ in exchange(service, data):
        assert 100 <= status < 600 and status != 500
