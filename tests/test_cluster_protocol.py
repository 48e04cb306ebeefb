"""The coordinator <-> worker wire: one definition, checked from outside.

``repro.cluster.protocol`` declares every op once; these tests hold the
two ends to it.  They replace lint rule RL015 (which re-derived a dict
protocol from the AST): the worker's registry against the declarations,
every message through the codec and JSON, every op through a real
worker's dispatcher, every error class across the wire, the two drifts
RL015's tests used to seed, the frame cap in both directions, and the
table in docs/cluster.md.
"""

from __future__ import annotations

import http.client
import json
import shutil
import socket
import subprocess
import sys
import threading
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterStore, protocol, worker
from repro.cluster.client import ShardClient
from repro.cluster.membership import Member, Membership
from repro.model.time import NOW, Period, PeriodSet, TimeError
from repro.mvbt.tree import DuplicateKeyError, TimeOrderError
from repro.obs import events
from repro.service.server import serve
from repro.service.store import StoreError
from repro.sparqlt.errors import ParseError, SparqltError

REPO = Path(__file__).resolve().parent.parent


def _subclasses(base) -> set[type]:
    return {
        obj for obj in vars(protocol).values()
        if isinstance(obj, type) and issubclass(obj, base) and obj is not base
    }


REQUESTS = _subclasses(protocol.Request)
REPLIES = _subclasses(protocol.Reply)


def _through_json(wire: dict) -> dict:
    return json.loads(json.dumps(wire, separators=(",", ":")))


# ----------------------------------------------------------------- registry


def test_worker_registry_is_exactly_the_declared_requests():
    assert set(worker._HANDLERS) == REQUESTS
    assert set(protocol.REQUESTS.values()) == REQUESTS
    assert len(protocol.REQUESTS) == len(REQUESTS) == 9  # op names unique
    assert {cls.reply for cls in REQUESTS} <= REPLIES


# --------------------------------------------------------------- round trip

_names = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]),
                 max_size=12)
_ints = st.integers(-2**40, 2**40)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_json = st.recursive(
    st.none() | st.booleans() | _ints | _floats | _names,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_names, inner, max_size=3),
    max_leaves=8,
)
_periods = st.builds(
    lambda start, length, live: Period(
        start, NOW if live else start + length),
    st.integers(0, 10_000), st.integers(1, 500), st.booleans(),
)
_values = _names | st.builds(PeriodSet, st.lists(_periods, max_size=3))

#: one strategy per field annotation; a new kind of field has to be added
#: here (KeyError below) before its message can round-trip.
BY_ANNOTATION = {
    "str": _names, "int": _ints, "bool": st.booleans(),
    "str | None": st.none() | _names,
    "list[str]": st.lists(_names, max_size=3),
    "dict[str, Any]": st.dictionaries(_names, _json, max_size=3),
    "dict[str, Any] | None":
        st.none() | st.dictionaries(_names, _json, max_size=3),
    "list[dict[str, Any]]":
        st.lists(st.dictionaries(_names, _json, max_size=3), max_size=3),
    "list[list[Any]]": st.lists(
        st.tuples(_names, _names, _names, _ints, st.none() | _ints)
        .map(list), max_size=3),
}
#: fields whose declared type says less than their meaning.
BY_FIELD = {
    (protocol.Query, "text"): st.text(min_size=1).filter(str.strip),
    (protocol.Update, "update"): st.sampled_from(["insert", "delete"]),
    (protocol.RowsReply, "rows"): st.lists(
        st.dictionaries(_names, _values, max_size=3), max_size=3),
}


def _messages(cls):
    strategies = {}
    for spec in fields(cls):
        strategy = BY_FIELD.get((cls, spec.name))
        if strategy is None:
            strategy = BY_ANNOTATION[spec.type]
        if spec.default is not MISSING:
            strategy = st.just(spec.default) | strategy
        strategies[spec.name] = strategy
    return st.builds(cls, **strategies)


@settings(max_examples=25, deadline=None)
@given(st.data())
@pytest.mark.parametrize(
    "cls", sorted(REQUESTS | REPLIES, key=lambda cls: cls.__name__))
def test_every_message_survives_the_codec_and_json(cls, data):
    message = data.draw(_messages(cls))
    wire = _through_json(protocol.to_wire(message))
    assert protocol.from_wire(cls, wire) == message
    if cls in REQUESTS:
        assert wire["op"] == cls.op
        assert protocol.decode_request(wire) == message
    else:
        assert wire["ok"] is True


def test_defaults_stay_off_the_wire():
    """The frames are the ones the dict protocol sent: no envelope key
    (or ``limit``) unless it says something."""
    assert protocol.to_wire(protocol.Status()) == {"op": "status"}
    assert protocol.to_wire(protocol.Events()) == {"op": "events"}
    assert protocol.to_wire(protocol.RevisionReply(revision=3)) == {
        "ok": True, "revision": 3}
    assert protocol.to_wire(protocol.Query(text="q", horizon=4)) == {
        "op": "query", "horizon": 4, "text": "q"}
    assert protocol.from_wire(protocol.Events, {"op": "events"}).limit == 100


@pytest.mark.parametrize("wire, complaint", [
    ({"op": "no_such_op"}, "unknown op: 'no_such_op'"),
    ({}, "unknown op: None"),
    ({"op": ["status"]}, r"unknown op: \['status'\]"),
    ({"op": "update", "update": "insert", "predicate": "p", "object": "o",
      "time": 1}, "Update: missing field 'subject'"),
    ({"op": "status", "verbose": True},
     r"Status: unexpected field\(s\) \['verbose'\]"),
    ({"op": "update", "update": "upsert", "subject": "s", "predicate": "p",
      "object": "o", "time": 1}, "bad update op: 'upsert'"),
    ({"op": "query", "text": "  "}, "missing 'text' string"),
])
def test_malformed_requests_are_value_errors(wire, complaint):
    with pytest.raises(ValueError, match=complaint):
        protocol.decode_request(wire)


# ------------------------------------------------- a worker, in this process


def _state(directory: Path):
    return worker._WorkerState(worker.WorkerConfig(
        shard_id=0, directory=str(directory), fsync=False))


@pytest.fixture()
def serving(tmp_path):
    """``serving(state)`` answers ``state``'s RPCs on a loopback port."""
    servers, states = [], []

    def start(state) -> tuple[str, int]:
        server = worker._WorkerServer(
            ("127.0.0.1", 0), worker._Handler, state)
        threading.Thread(target=server.serve_forever, daemon=True,
                         kwargs={"poll_interval": 0.05}).start()
        servers.append(server)
        states.append(state)
        return server.server_address

    yield start
    for server, state in zip(servers, states):
        state.stopping.set()
        server.shutdown()
        server.server_close()
        state.store.close()


#: one request per op.
SAMPLES = [
    protocol.Ping(),
    protocol.Status(),
    protocol.Load(rows=[["l", "p", "o", 1, None], ["l", "q", "o", 1, 7]]),
    protocol.Update(update="insert", subject="s", predicate="p",
                    object="o", time=1000),
    protocol.Query(text="SELECT ?o {s p ?o ?t}", horizon=1001),
    protocol.Checkpoint(),
    protocol.RefreshStats(),
    protocol.Metrics(),
    protocol.Events(limit=5),
]


def test_every_op_crosses_a_real_dispatcher(tmp_path):
    """Each declared op, encoded, through JSON, decoded and handled by a
    worker's ``_dispatch`` over a real store, answers with a frame that
    decodes as the reply type the request names.  A handler reading a
    field the request does not declare, or building a reply with one its
    class lacks, fails here."""
    assert {type(request) for request in SAMPLES} == REQUESTS
    state = _state(tmp_path / "shard")
    try:
        for request in SAMPLES:
            wire = worker._dispatch(
                state, _through_json(protocol.to_wire(request)))
            assert wire.get("ok"), (request, wire)
            reply = protocol.from_wire(request.reply, _through_json(wire))
            assert type(reply) is request.reply
    finally:
        state.store.close()


def _mutated_tree(tmp_path: Path, mutate=None) -> subprocess.CompletedProcess:
    """Run the two conformance tests above against a copy of ``src``."""
    tree = tmp_path / "src"
    shutil.copytree(REPO / "src", tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutate:
        mutate(tree / "repro" / "cluster")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         str(Path(__file__)), "-k", "registry or real_dispatcher"],
        env={"PYTHONPATH": str(tree), "PATH": ""}, cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )


def _replace(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new))


class TestSeededDrift:
    """The two mutations RL015's tests seeded, against the real sources:
    each now fails at import or in a conformance test."""

    def test_the_unmutated_copy_passes(self, tmp_path):
        done = _mutated_tree(tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr

    def test_a_field_renamed_on_the_handler_side(self, tmp_path):
        done = _mutated_tree(tmp_path, lambda cluster: _replace(
            cluster / "worker.py", "request.subject", "request.subject_iri"))
        assert done.returncode != 0
        assert "subject_iri" in done.stdout

    def test_a_field_renamed_in_the_declaration(self, tmp_path):
        done = _mutated_tree(tmp_path, lambda cluster: _replace(
            cluster / "protocol.py", "    subject: str\n",
            "    subject_iri: str\n"))
        assert done.returncode != 0
        assert "subject" in done.stdout

    def test_the_checkpoint_op_renamed_in_the_registry(self, tmp_path):
        done = _mutated_tree(tmp_path, lambda cluster: _replace(
            cluster / "worker.py", "protocol.Checkpoint:",
            "protocol.Checkpoint2:"))
        assert done.returncode != 0
        assert "Checkpoint2" in done.stdout + done.stderr


# ------------------------------------------------------------------- errors

#: every class in protocol.ERRORS (and the subclasses the old ``except``
#: ladder named), with the HTTP status the server gives what the
#: coordinator raises for it — as at the parent commit.
CROSSING = [
    (ParseError("bad token"), ValueError, 400),
    (SparqltError("bad query"), ValueError, 400),
    (TimeError("bad date"), ValueError, 400),
    (ValueError("bad value"), ValueError, 400),
    (DuplicateKeyError("already live"), DuplicateKeyError, 409),
    (TimeOrderError("before the watermark"), TimeOrderError, 409),
    (KeyError("no such live fact"), KeyError, 409),
    (StoreError("store is closed"), StoreError, 409),
    (protocol.FrameTooLarge("frame too large: 9 bytes"), StoreError, 409),
    (protocol.ProtocolError("undecodable"), StoreError, 409),
    (OSError("disk full"), StoreError, 409),
]


def test_the_table_and_the_crossing_list_name_the_same_classes():
    listed = {type(error) for error, _, _ in CROSSING}
    for _, raised, caught in protocol.ERRORS:
        assert set(caught) <= listed
        assert raised in {r for _, r, _ in CROSSING}
    assert set(protocol.WIRE_ERRORS) <= listed


class _Raising:
    """A store whose query raises what the coordinator would."""

    revision = live_facts = 0
    error: Exception

    def query(self, text, profile=False):
        raise self.error


@pytest.fixture(scope="module")
def http_service():
    service = serve(_Raising(), port=0)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    service.shutdown()
    thread.join(timeout=10)


@pytest.mark.parametrize(
    "error, raised, status", CROSSING,
    ids=[type(error).__name__ for error, _, _ in CROSSING])
def test_errors_cross_the_wire_with_message_and_http_status(
        tmp_path, monkeypatch, http_service, error, raised, status):
    def handler(state, request):
        raise error

    monkeypatch.setitem(worker._HANDLERS, protocol.Ping, handler)
    state = _state(tmp_path)
    try:
        wire = _through_json(worker._dispatch(state, {"op": "ping"}))
    finally:
        state.store.close()
    # the message itself crosses: str() of a KeyError would quote it
    assert wire["ok"] is False and wire["error"] == error.args[0]
    arrived = protocol.error_from_wire(wire)
    assert type(arrived) is raised
    assert arrived.args == error.args
    http_service.store.error = arrived
    conn = http.client.HTTPConnection("127.0.0.1", http_service.port,
                                      timeout=15)
    try:
        conn.request("POST", "/query", json.dumps({"query": "SELECT ?s {}"}))
        response = conn.getresponse()
        body = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == status
    assert body["error"] == str(arrived)


def test_unknown_kind_is_a_store_error():
    arrived = protocol.error_from_wire(
        {"ok": False, "error": "odd", "kind": "from_the_future"})
    assert type(arrived) is StoreError and str(arrived) == "odd"


def test_a_hand_built_frame_missing_a_field_is_a_bad_request(
        tmp_path, serving):
    """It used to be a *conflict*: ``payload["subject"]`` raised KeyError,
    which the dispatcher reported as ``conflict_missing`` (HTTP 409)."""
    address = serving(_state(tmp_path))
    with socket.create_connection(address, timeout=10) as sock:
        protocol.send_message(sock, {
            "op": "update", "update": "insert", "predicate": "p",
            "object": "o", "time": 1000,
        })
        answer = protocol.recv_message(sock)
        assert answer == {"ok": False, "kind": "bad_request",
                          "error": "Update: missing field 'subject'"}
        assert type(protocol.error_from_wire(answer)) is ValueError
        # the connection and the worker are still fine
        protocol.send_message(sock, {"op": "query"})
        assert protocol.recv_message(sock)["kind"] == "bad_request"
        protocol.send_message(sock, {"op": "status"})
        assert protocol.recv_message(sock)["revision"] == 0


# ---------------------------------------------------------------- frame cap


def _member_deaths() -> list[dict]:
    return [e for e in events.EVENTS.recent(1000)
            if e["event"] == "cluster.event.member_dead"]


class TestFrameCap:
    """An over-cap frame is refused before a byte is written, so it says
    nothing about the peer: the member keeps its client, still alive,
    no death is recorded, and the next RPC to the shard answers."""

    def test_oversized_request_is_a_store_error_not_a_dead_primary(
            self, tmp_path, monkeypatch):
        with ClusterStore(tmp_path / "clu", shards=1,
                          fsync=False) as cluster:
            member = cluster._membership.members[0]
            primary = member.primary
            events.EVENTS.clear()
            monkeypatch.setattr(protocol, "MAX_FRAME", 200)
            with pytest.raises(StoreError, match=r"frame too large: \d+"):
                cluster.insert("s" * 500, "p", "o", 1000)
            monkeypatch.undo()
            assert member.primary is primary and primary.alive
            assert _member_deaths() == []
            # same pooled connection, same worker, next request served
            assert cluster.insert("s", "p", "o", 1000) == 1

    def test_oversized_reply_is_an_error_reply_not_a_dead_primary(
            self, tmp_path, serving, monkeypatch):
        shard = _state(tmp_path / "shard")
        for index in range(40):
            shard.store.insert(f"subject-{index}", "p", "o", 1000 + index)
        membership = Membership(tmp_path, 1, {})
        member = Member(0, ShardClient(serving(shard), directory=tmp_path))
        membership.members.append(member)
        primary = member.primary
        events.EVENTS.clear()
        listing = protocol.Query(text="SELECT ?s {?s p ?o ?t}", horizon=2000)
        try:
            assert len(membership.rpc_primary(member, listing).rows) == 40
            monkeypatch.setattr(protocol, "MAX_FRAME", 300)
            with pytest.raises(StoreError, match=r"frame too large: \d+"):
                membership.rpc_primary(member, listing)
            monkeypatch.undo()
            assert member.primary is primary and primary.alive
            assert _member_deaths() == []
            assert len(membership.rpc_primary(member, listing).rows) == 40
        finally:
            primary.close()


# --------------------------------------------------------------------- docs


def _field_list(cls) -> str:
    base = (protocol.Request if issubclass(cls, protocol.Request)
            else protocol.Reply)
    envelope = {spec.name for spec in fields(base)}
    own = [
        f"`{spec.name}`" + ("" if spec.default is MISSING else "?")
        for spec in fields(cls) if spec.name not in envelope
    ]
    return ", ".join(own) or "—"


def test_docs_wire_protocol_table_matches_the_declarations():
    """docs/cluster.md, "Wire protocol": one row per op with its request
    fields, reply class and reply fields (``?`` marks a field with a
    default), and one row per error kind.  On a mismatch the assertion
    message is the row to paste."""
    text = (REPO / "docs" / "cluster.md").read_text()
    section = text[text.index("## Wire protocol"):]
    section = section[:section.index("\n## ", 1)]
    for op, cls in sorted(protocol.REQUESTS.items()):
        row = (f"| `{op}` | {_field_list(cls)} | `{cls.reply.__name__}` "
               f"| {_field_list(cls.reply)} |")
        assert row in section, row
    assert section.count("\n| `") == len(REQUESTS) + len(protocol.ERRORS)
    for kind, raised, caught in protocol.ERRORS:
        names = ", ".join(f"`{cls.__name__}`" for cls in caught)
        row = f"| `{kind}` | {names} | `{raised.__name__}` |"
        assert row in section, row
    envelope = [spec.name for spec in fields(protocol.Request)]
    assert all(f"`{name}`" in section for name in envelope + ["trace"])
    assert str(protocol.MAX_FRAME // 2**20) + " MiB" in section
