"""The framed socket transport: every way a network byte stream can
lie — truncation, corruption, lost sync, lost frames, mid-frame
disconnect — must surface as a *typed* error, never a hang or garbage,
and the reconnect backoff schedule must be assertable against a fake
clock (no real sleeping)."""

import inspect
import io
import mmap
import pickle
import random
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blast.scankernel import db_token
from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams, resolve_ka, search
from repro.blast.seqdb import NT, SequenceDB
from repro.exec import net
from repro.exec.net import (DATA, FRAME_MAGIC, HEADER_SIZE,
                            MAX_FRAME_PAYLOAD, PING, PONG, FrameConnection,
                            FrameCRCError, FrameDecoder, FrameError,
                            FrameSequenceError, FrameTruncated,
                            NodeConnectError, backoff_delay, connect_backoff,
                            encode_frame, parse_address)
from repro.exec.nodes import (PROTO_VERSION, NodeAgent, NodeClient,
                              NodeFleet, run_node)
from repro.exec.pool import ExecPool, JobSpec, PoolJobError
from repro.exec.shm import ShmRegistry, pack_fragment, read_pack_bytes

NT_LETTERS = np.array(list("ACGT"))


# ----------------------------------------------------------------------
# Frame encode/decode
# ----------------------------------------------------------------------
def test_frame_roundtrip_and_incremental_feed():
    dec = FrameDecoder()
    payloads = [b"", b"x", b"hello world" * 100]
    wire = b"".join(encode_frame(DATA, i, p) for i, p in enumerate(payloads))
    got = []
    # Byte-at-a-time delivery: frames must pop out exactly at their
    # boundaries, never early, never duplicated.
    for i in range(len(wire)):
        dec.feed(wire[i:i + 1])
        got.extend(dec.frames())
    assert [(t, s, p) for t, s, p in got] == \
        [(DATA, i, p) for i, p in enumerate(payloads)]
    assert dec.pending_bytes == 0
    dec.check_eof()                      # clean boundary: no complaint


def test_frame_truncated_at_eof():
    dec = FrameDecoder()
    frame = encode_frame(DATA, 0, b"payload bytes")
    dec.feed(frame[:-3])
    assert list(dec.frames()) == []      # incomplete: waits, no error yet
    with pytest.raises(FrameTruncated):
        dec.check_eof()


def test_frame_truncated_inside_header():
    dec = FrameDecoder()
    dec.feed(encode_frame(DATA, 0, b"abc")[:HEADER_SIZE - 2])
    assert list(dec.frames()) == []
    with pytest.raises(FrameTruncated):
        dec.check_eof()


def test_frame_crc_error_on_flipped_payload_bit():
    dec = FrameDecoder()
    frame = bytearray(encode_frame(DATA, 0, b"payload bytes"))
    frame[HEADER_SIZE + 4] ^= 0x01
    dec.feed(bytes(frame))
    with pytest.raises(FrameCRCError):
        list(dec.frames())


def test_frame_bad_magic_is_lost_sync():
    dec = FrameDecoder()
    frame = bytearray(encode_frame(DATA, 0, b"x"))
    frame[0:4] = b"JUNK"
    dec.feed(bytes(frame))
    with pytest.raises(FrameError):
        list(dec.frames())


def test_frame_unknown_type_rejected():
    dec = FrameDecoder()
    frame = bytearray(encode_frame(DATA, 0, b"x"))
    frame[4:5] = b"Z"
    dec.feed(bytes(frame))
    with pytest.raises(FrameError):
        list(dec.frames())


def test_frame_length_cap_fails_before_allocation():
    # A corrupted length field must be a framing error, not an attempt
    # to buffer a "1 GiB + 1" payload.
    hdr = struct.Struct("<4sc Q I I").pack(FRAME_MAGIC, DATA, 0,
                                           MAX_FRAME_PAYLOAD + 1, 0)
    dec = FrameDecoder()
    dec.feed(hdr)
    with pytest.raises(FrameError, match="cap"):
        list(dec.frames())
    # encode_frame checks len() before it reads a byte; an anonymous
    # mapping has the length without ever touching its pages.
    with mmap.mmap(-1, MAX_FRAME_PAYLOAD + 1) as oversize:
        with pytest.raises(ValueError):
            encode_frame(DATA, 0, oversize)


def test_frame_sequence_gap_detected():
    dec = FrameDecoder()
    dec.feed(encode_frame(DATA, 0, b"first"))
    dec.feed(encode_frame(DATA, 2, b"third"))   # frame 1 lost
    it = dec.frames()
    assert next(it)[2] == b"first"
    with pytest.raises(FrameSequenceError):
        next(it)


def test_decoder_memory_follows_the_frame_not_the_reads():
    # A payload is collected once, at its stated length: what decoding
    # a frame allocates must not depend on how the stream was cut into
    # reads.  (One buffer grown read by read did — and a node's resident
    # set after a pack ship followed the network's timing.)
    payload = bytes(range(256)) * 4096          # 1 MiB
    wire = encode_frame(DATA, 0, payload)
    peaks = []
    for step in (len(wire), 1 << 16, 4093, 517):
        dec = FrameDecoder()
        got = []
        tracemalloc.start()
        try:
            for i in range(0, len(wire), step):
                dec.feed(wire[i:i + step])
                got.extend(dec.frames())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [(t, s) for t, s, _ in got] == [(DATA, 0)]
        assert got[0][2] == payload and dec.pending_bytes == 0
    slack = 3 << 16                             # a read's slice, bookkeeping
    assert max(peaks) - min(peaks) < slack
    assert max(peaks) < len(payload) + slack    # one copy, never two


# ----------------------------------------------------------------------
# FrameConnection over a real socketpair
# ----------------------------------------------------------------------
def _conn_pair():
    a, b = socket.socketpair()
    return FrameConnection(a, name="a"), FrameConnection(b, name="b")


def test_connection_send_recv_poll_roundtrip():
    a, b = _conn_pair()
    try:
        assert not b.poll(0)
        a.send(("task", (0, 1), ("p0",), 7))
        a.send({"n": 2})
        assert b.poll(1.0)
        # One socket read decoded both frames: the second message is
        # queued (no further fd activity will announce it).
        assert b.recv() == ("task", (0, 1), ("p0",), 7)
        assert b.queued == 1
        assert b.poll(0)
        assert b.recv() == {"n": 2}
        assert b.queued == 0
    finally:
        a.close()
        b.close()


def test_connection_ping_pong_refreshes_last_heard():
    a, b = _conn_pair()
    try:
        before = a.last_heard
        time.sleep(0.02)
        a.ping()
        assert a.last_ping > 0
        # b answers the PING inside poll() without surfacing a message.
        assert not b.poll(0.5)
        # The PONG reply lands on a's side and refreshes last_heard
        # even though no DATA message ever arrives.
        assert not a.poll(0.5)
        assert a.last_heard > before
    finally:
        a.close()
        b.close()


def test_connection_clean_close_is_eof():
    a, b = _conn_pair()
    try:
        a.send("bye")
        a.close()
        assert b.recv() == "bye"
        with pytest.raises(EOFError):
            b.recv()
    finally:
        b.close()


def test_connection_midframe_close_is_truncation():
    a, b = socket.socketpair()
    conn = FrameConnection(b, name="victim")
    try:
        frame = encode_frame(DATA, 0, pickle.dumps("never arrives"))
        a.sendall(frame[:len(frame) - 5])
        a.close()
        with pytest.raises(FrameTruncated):
            conn.recv()
    finally:
        conn.close()


def test_connection_closed_raises_oserror():
    a, b = _conn_pair()
    a.close()
    b.close()
    with pytest.raises(OSError):
        a.send("x")
    with pytest.raises(OSError):
        b.recv()


# ----------------------------------------------------------------------
# Address parsing and backoff
# ----------------------------------------------------------------------
def test_parse_address():
    assert parse_address("node7:4321") == ("node7", 4321)
    assert parse_address(":4321") == ("127.0.0.1", 4321)
    assert parse_address(("h", "80")) == ("h", 80)
    assert parse_address(["h", 80]) == ("h", 80)
    for bad in ("nocolon", "host:", "host:notaport", ""):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_backoff_delay_grows_and_caps():
    delays = [backoff_delay(i, base=0.1, max_delay=1.0, jitter=0.0)
              for i in range(6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
    # Jitter only ever stretches the delay (anti-stampede), bounded by
    # the jitter fraction.
    rng = random.Random(42)
    for i in range(6):
        d = backoff_delay(i, base=0.1, max_delay=1.0, jitter=0.5, rng=rng)
        assert delays[i] <= d <= delays[i] * 1.5


def test_connect_backoff_schedule_with_fake_clock():
    sleeps = []
    tries = []

    def dial(address, timeout):
        tries.append(address)
        if len(tries) < 4:
            raise ConnectionRefusedError("nope")
        return "SOCK"

    sock = connect_backoff("127.0.0.1:9", attempts=5, base_delay=0.05,
                           max_delay=10.0, jitter=0.0,
                           sleep=sleeps.append, connect=dial)
    assert sock == "SOCK"
    assert len(tries) == 4
    # Three failures -> three backoff sleeps, exponential from base.
    assert sleeps == [0.05, 0.1, 0.2]


def test_connect_backoff_exhaustion_raises_typed_error():
    sleeps = []

    def dial(address, timeout):
        raise ConnectionRefusedError("always down")

    with pytest.raises(NodeConnectError, match="after 3 attempt"):
        connect_backoff(("10.0.0.1", 1), attempts=3, base_delay=0.01,
                        jitter=0.0, sleep=sleeps.append, connect=dial)
    # No sleep after the final failure: the budget bounds wall-clock.
    assert sleeps == [0.01, 0.02]


def test_connect_backoff_jitter_uses_injected_rng():
    recorded = []

    class FixedRng:
        def random(self):
            return 1.0

    def dial(address, timeout):
        if not recorded:
            raise OSError("first")
        return "S"

    connect_backoff("h:1", attempts=2, base_delay=0.1, jitter=0.5,
                    sleep=recorded.append, rng=FixedRng(), connect=dial)
    assert recorded == [pytest.approx(0.15)]


# ----------------------------------------------------------------------
# Agent session protocol (real socket, in-process agent)
# ----------------------------------------------------------------------
def _nt_db(rng, n):
    db = SequenceDB(NT)
    for i in range(n):
        length = int(rng.integers(60, 200))
        db.add(f"s{i}", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def test_agent_session_protocol_and_stale_epoch():
    """Drive one agent session message by message: hello handshake,
    publish, task (with the epoch echoed back so the master can discard
    stale stragglers), adopt of a cached identity, and stop."""
    rng = np.random.default_rng(21)
    db = _nt_db(rng, 10)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    q = db.sequence(3)[:80].copy()
    registry = ShmRegistry()
    spec = pack_fragment(db, params.word_size, 4,
                         cache_token=(db_token(db), 0, 0), registry=registry)
    job = JobSpec(query=q, query_id="q", scheme=scheme, params=params,
                  both_strands=True, ka=resolve_ka(scheme, params, False),
                  effective_space=(len(q), db.total_residues))
    agent = NodeAgent("127.0.0.1", 0, node_id="proto-test")
    server = threading.Thread(target=agent.serve, kwargs={"max_sessions": 2},
                              daemon=True)
    server.start()
    try:
        sock = socket.create_connection(agent.address, timeout=5.0)
        conn = FrameConnection(sock, name="master")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 9}))
        kind, rank, info = conn.recv()
        assert (kind, rank) == ("ready", 9)
        assert info["node"] == "proto-test" and info["held"] == []

        conn.send(("publish", spec, read_pack_bytes(spec)))
        conn.send(("task", (0,), (spec.name,), 7, [job]))
        msg = conn.recv()
        assert msg[0] == "result" and msg[1] == 9
        assert msg[2] == (0,) and msg[3] == (spec.name,)
        assert msg[6] == 7          # epoch echoed: stale-epoch filtering
        pairs = msg[4]              # the result message carries them
        assert [p[:2] for p in pairs] == [(spec.name, 0)]
        serial = search(q, db, scheme, params, query_id="q")
        assert pairs[0][2].tabular() == serial.tabular()

        # An epoch the master has already left behind still comes back
        # tagged — the pool-side pump is what discards it; the agent
        # must never silently swallow a task.
        conn.send(("task", (0,), (spec.name,), 3, [job]))
        stale = conn.recv()
        assert stale[0] == "result" and stale[6] == 3

        conn.send(("stop",))
        assert conn.recv() == ("stopped", 9)
        conn.close()

        # Reconnect: the hello reply advertises the cached identity and
        # an adopt re-uses it without reshipping a byte.
        sock = socket.create_connection(agent.address, timeout=5.0)
        conn = FrameConnection(sock, name="master2")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 9}))
        _, _, info = conn.recv()
        assert tuple(spec.cache_token) in {tuple(t) for t in info["held"]}
        conn.send(("adopt", spec.name, spec.cache_token))
        conn.send(("task", (0,), (spec.name,), 0, [job]))
        msg = conn.recv()
        assert msg[0] == "result"
        conn.send(("stop",))
        assert conn.recv()[0] == "stopped"
        conn.close()
    finally:
        server.join(timeout=10.0)
        agent.close()
        registry.release(spec.name)


def test_agent_rejects_adopt_of_unknown_identity():
    agent = NodeAgent("127.0.0.1", 0, node_id="reject-test")
    server = threading.Thread(target=agent.serve, kwargs={"max_sessions": 1},
                              daemon=True)
    server.start()
    try:
        sock = socket.create_connection(agent.address, timeout=5.0)
        conn = FrameConnection(sock, name="master")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 0}))
        assert conn.recv()[0] == "ready"
        conn.send(("adopt", "packX", ("tok", 0, 0)))
        msg = conn.recv()
        assert msg[0] == "error" and "not cached" in msg[4]
        conn.send(("stop",))
        assert conn.recv()[0] == "stopped"
        conn.close()
    finally:
        server.join(timeout=10.0)
        agent.close()


# ----------------------------------------------------------------------
# Protocol version: stated by both ends, enforced by both ends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hello", [{"proto": PROTO_VERSION - 1, "rank": 0},
                                   {"rank": 0}])
def test_agent_refuses_a_master_speaking_another_protocol(hello):
    """A mismatched hello gets the typed error reply naming both
    versions and the session ends, the task sent behind it never served
    — and the agent keeps accepting: the next master, speaking this
    version, is served."""
    assert PROTO_VERSION == 11  # 10 carried the global ids in every spec
    agent = NodeAgent("127.0.0.1", 0, node_id="versioned")
    server = threading.Thread(target=agent.serve, kwargs={"max_sessions": 2},
                              daemon=True)
    server.start()
    try:
        conn = FrameConnection(
            socket.create_connection(agent.address, timeout=5.0), name="old")
        conn.send(("hello", hello))
        conn.send(("task", (0,), ("any",), 1, []))
        msg = conn.recv()
        assert msg[0] == "error" and "protocol version" in msg[4]
        assert repr(hello.get("proto")) in msg[4]
        assert str(PROTO_VERSION) in msg[4]
        with pytest.raises(EOFError):       # no reply to the task
            conn.recv()
        conn.close()

        conn = FrameConnection(
            socket.create_connection(agent.address, timeout=5.0), name="new")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 0}))
        kind, _rank, info = conn.recv()
        assert kind == "ready" and info["proto"] == PROTO_VERSION
        conn.send(("stop",))
        assert conn.recv()[0] == "stopped"
        conn.close()
    finally:
        server.join(timeout=10.0)
        agent.close()
    assert not server.is_alive()


def test_client_refuses_a_node_speaking_another_protocol(
        monkeypatch):
    """A node answering ``ready`` under another version is a failed
    dial: ``NodeConnectError`` naming both versions, which the pool
    records as ``node_unreachable`` like any other — and the master
    sends such a node nothing after the hello."""
    lsock = socket.socket()
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(2)
    address = lsock.getsockname()[:2]
    after_hello = []

    def old_node():
        for _ in range(2):
            sock, _peer = lsock.accept()
            conn = FrameConnection(sock, name="master")
            assert conn.recv()[0] == "hello"
            conn.send(("ready", 0, {"node": "old", "proto": PROTO_VERSION - 1,
                                    "pid": 0, "held": []}))
            try:
                after_hello.append(conn.recv())
            except EOFError:
                pass
            conn.close()

    peer = threading.Thread(target=old_node, daemon=True)
    peer.start()
    try:
        client = NodeClient(address, 0, connect_attempts=1)
        with pytest.raises(NodeConnectError) as err:
            client.connect()
        assert f"version {PROTO_VERSION - 1}" in str(err.value)
        assert f"speaks {PROTO_VERSION}" in str(err.value)
        assert client.conn is None

        monkeypatch.setattr("repro.exec.pool._NODE_CONNECT_ATTEMPTS", 1)
        pool = ExecPool(jobs=0, nodes=[address], serial_fallback=False)
        try:
            with pytest.warns(RuntimeWarning, match="protocol version"):
                with pytest.raises(PoolJobError):
                    pool.start()
            assert pool.ledger.summary().get("node_unreachable", 0) == 1
        finally:
            pool.close()
    finally:
        peer.join(timeout=10.0)
        lsock.close()
    assert not peer.is_alive() and after_hello == []



# ----------------------------------------------------------------------
# The wire unpickles only what the protocol sends
# ----------------------------------------------------------------------
class _Recorder(pickle.Unpickler):
    """Unpickles freely, noting every global the pickle names."""

    def __init__(self, data, seen):
        super().__init__(io.BytesIO(data))
        self.seen = seen

    def find_class(self, module, name):
        self.seen.add((module, name))
        return super().find_class(module, name)


def _globals_named(message):
    seen = set()
    _Recorder(pickle.dumps(message, pickle.HIGHEST_PROTOCOL), seen).load()
    return seen


def test_wire_globals_are_what_the_protocol_sends(monkeypatch):
    """Every message the pool and its agents exchange — local agents
    (attach), a node (publish), tasks, results, PONGs, goodbyes — names
    only globals of ``WIRE_GLOBALS``, and every entry is named by one
    (the array rebuild under the other numpy's spelling aside)."""
    sent, got = [], []
    real_send, real_loads = FrameConnection.send, net.wire_loads
    monkeypatch.setattr(FrameConnection, "send",
                        lambda self, obj: (sent.append(obj),
                                           real_send(self, obj))[1])
    monkeypatch.setattr(net, "wire_loads",
                        lambda payload: got.append(real_loads(payload))
                        or got[-1])
    rng = np.random.default_rng(5)
    db = _nt_db(rng, 12)
    queries = [db.sequence(i)[:70].copy() for i in (2, 7)]
    scheme, params = NucleotideScore(), SearchParams(word_size=11)
    with ExecPool(jobs=2, heartbeat=0.05) as pool:
        pool.search_many(queries, db, scheme, params)
    with NodeFleet(1) as fleet, \
            ExecPool(jobs=0, nodes=fleet.addresses) as pool:
        pool.search_many(queries, db, scheme, params)
    messages = sent + got + [
        ("adopt", "p", ("tok", 0, 0)), ("detach", "p"),
        ("error", 0, (0,), ("p",), "Traceback ...", 1),
        ("integrity", 0, "p", "CRC32 mismatch"), None, ((0,), ("p",), 1)]
    kinds = {m[0] for m in messages if type(m) is tuple and m
             and type(m[0]) is str}
    assert {"hello", "ready", "attach", "publish", "task", "result",
            "stop", "stopped"} <= kinds
    named = set().union(*map(_globals_named, messages))
    assert named <= net.WIRE_GLOBALS
    # numpy names its array rebuild under numpy._core (2) or numpy.core (1).
    rebuild = {("numpy._core.numeric", "_frombuffer"),
               ("numpy.core.numeric", "_frombuffer")}
    assert len(named & rebuild) == 1
    assert net.WIRE_GLOBALS - named == rebuild - named


class _Evil:
    """Pickles as a call of *func* with *args*."""

    def __init__(self, func, *args):
        self.call = (func, args)

    def __reduce__(self):
        return self.call


def _evil_payloads(target):
    import os
    import subprocess
    return {"builtins.open": _Evil(open, str(target), "w"),
            "os.system": _Evil(os.system, f"touch {target}"),
            "subprocess.Popen": _Evil(subprocess.Popen, ["touch",
                                                          str(target)])}


@pytest.mark.parametrize("name", ["builtins.open", "os.system",
                                  "subprocess.Popen"])
def test_a_frame_naming_another_global_is_refused_unrun(tmp_path, name):
    target = tmp_path / "side-effect"
    evil = _evil_payloads(target)[name]
    payload = pickle.dumps(("task", evil), pickle.HIGHEST_PROTOCOL)
    assert name.split(".")[-1].encode() in payload
    a, b = _conn_pair()
    try:
        a._send_frame(DATA, payload)
        with pytest.raises(FrameError, match="never sends"):
            b.recv()
    finally:
        a.close()
        b.close()
    time.sleep(0.05)
    assert not target.exists()


_HELLO = pickle.dumps(("hello", {"proto": PROTO_VERSION, "rank": 0}), 5)
#: Frame payloads that are no message: no pickle, a pickle cut short, a
#: pickle whose object refuses its arguments.
_NO_MESSAGE = {"no pickle": b"not a pickle", "cut short": _HELLO[:-4],
               "bad args": pickle.dumps(np.dtype("u1"), 5).replace(
                   b"u1", b"zz")}


@pytest.mark.parametrize("payload", sorted(_NO_MESSAGE))
def test_a_payload_that_is_no_message_is_a_frame_error(payload):
    with pytest.raises(FrameError, match="no message"):
        net.wire_loads(_NO_MESSAGE[payload])


@pytest.mark.parametrize("first", [
    42, "hello", ("hello",), ("hello", "proto"), ["hello", {}],
    ("hello", {}, 1), ("hello", {"proto": PROTO_VERSION, "rank": "0"}),
    "evil", *sorted(_NO_MESSAGE)])
def test_agent_refuses_a_first_message_that_is_no_hello(tmp_path, capfd,
                                                        first):
    """One line on stderr, one error reply, no traceback and no side
    effect — and the agent serves the next master."""
    target = tmp_path / "side-effect"
    agent = NodeAgent("127.0.0.1", 0, node_id="strict")
    server = threading.Thread(target=agent.serve, kwargs={"max_sessions": 2},
                              daemon=True)
    server.start()
    try:
        conn = FrameConnection(
            socket.create_connection(agent.address, timeout=5.0), name="x")
        if first == "evil":
            conn._send_frame(DATA, pickle.dumps(
                _evil_payloads(target)["os.system"], 5))
            why = "never sends"
        elif isinstance(first, str) and first in _NO_MESSAGE:
            conn._send_frame(DATA, _NO_MESSAGE[first])
            why = "no message"
        else:
            conn.send(first)
            why = "expected ('hello'"
        msg = conn.recv()
        assert msg[0] == "error" and msg[1] == -1
        assert why in msg[4]
        with pytest.raises(EOFError):
            conn.recv()
        conn.close()

        conn = FrameConnection(
            socket.create_connection(agent.address, timeout=5.0), name="ok")
        conn.send(("hello", {"proto": PROTO_VERSION, "rank": 0}))
        assert conn.recv()[0] == "ready"
        conn.send(("stop",))
        assert conn.recv()[0] == "stopped"
        conn.close()
    finally:
        server.join(timeout=10.0)
        agent.close()
    err = capfd.readouterr().err
    assert err.count("refused a session") == 1 and "Traceback" not in err
    assert not target.exists()


def test_node_listens_on_loopback_unless_told_otherwise():
    from repro.cli import build_parser
    args = build_parser().parse_args(["node"])
    assert args.host == "127.0.0.1"
    assert inspect.signature(run_node).parameters["host"].default \
        == "127.0.0.1"


_WIRE_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(allow_nan=False), st.text(max_size=8),
                          st.binary(max_size=8))
_WIRE_VALUES = st.recursive(
    _WIRE_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["hello", "ready", "attach", "publish", "adopt",
                             "detach", "task", "result", "error",
                             "integrity", "stop", "stopped"]),
       body=st.lists(_WIRE_VALUES, max_size=5))
def test_every_message_shape_round_trips_the_wire(kind, body):
    """Containers and scalars name no global: any message built of them
    crosses the closed unpickler unchanged."""
    message = (kind, *body)
    a, b = _conn_pair()
    try:
        a.send(message)
        assert b.recv() == message
    finally:
        a.close()
        b.close()
