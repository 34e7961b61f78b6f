"""Framed socket transport: the one connection between the master and
every worker, a local agent on a ``socketpair`` or a node across a
network.

The paper's cluster runs the master and its workers on *separate*
nodes, where the failure modes are nastier than a dead child process:
connections drop mid-frame, bytes arrive corrupted, replies get
delayed past deadlines, and a partitioned peer looks exactly like a
slow one.  Following the ParaStation lesson from "Fast Parallel I/O on
Cluster Computers" (PAPERS.md) the transport is engineered
failure-first:

* every message travels in a **length-prefixed frame** carrying a
  magic, a type byte, a per-connection **sequence number**, the
  payload length, and a CRC32 of the payload — a truncated stream,
  flipped bit, or mis-ordered frame raises a *typed* error
  (:class:`FrameTruncated`, :class:`FrameCRCError`,
  :class:`FrameSequenceError`) instead of hanging or deserializing
  garbage;
* **heartbeat keepalives** (PING/PONG frames, handled inside the
  connection so callers never see them) let the master distinguish a
  live-but-idle worker from a silently dead one via
  :attr:`FrameConnection.last_heard`;
* connection establishment uses **bounded retry with exponential
  backoff + jitter** (:func:`connect_backoff`), with the clock, RNG,
  and connect function injectable so the retry schedule is testable
  against a fake clock.

:class:`FrameConnection` has the ``multiprocessing.Connection`` surface
(``send`` / ``recv`` / ``poll`` / ``fileno`` / ``close``, EOF as
:class:`EOFError`), so the pool's pump waits on every worker with one
``connection.wait``.
"""

from __future__ import annotations

import errno
import pickle
import random
import select
import socket
import struct
import time
import zlib
from collections import deque
from typing import Callable, Iterator, Optional, Tuple

#: Frame magic: 4 bytes at the start of every frame.  A connection that
#: delivers anything else is not speaking this protocol (or the stream
#: lost sync), which is a framing error, never a guess.
FRAME_MAGIC = b"RXF1"

#: Frame types.  DATA carries a pickled message — a result's pairs
#: included, so the frame CRC is their integrity check.
DATA, PING, PONG = b"D", b"P", b"O"

_HEADER = struct.Struct("<4sc Q I I")   # magic, type, seq, length, crc
HEADER_SIZE = _HEADER.size

#: Sanity cap on a single frame's payload (1 GiB): a corrupted length
#: field must fail as a framing error, not as a memory allocation.
MAX_FRAME_PAYLOAD = 1 << 30

#: How many bytes one socket read requests.
_CHUNK = 1 << 16


class TransportError(RuntimeError):
    """Base class for socket-transport failures."""


class FrameError(TransportError):
    """The byte stream violated the framing protocol."""


class FrameTruncated(FrameError):
    """The connection closed in the middle of a frame."""


class FrameCRCError(FrameError):
    """A frame's payload failed its CRC32 check."""


class FrameSequenceError(FrameError):
    """A frame arrived out of sequence (lost or replayed frame)."""


class NodeConnectError(TransportError):
    """Could not establish a connection within the retry budget."""


def encode_frame(ftype: bytes, seq: int, payload: bytes = b"") -> bytes:
    """One wire frame: header (magic, type, seq, length, crc) + payload."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ValueError(f"frame payload of {len(payload)} bytes exceeds "
                         f"the {MAX_FRAME_PAYLOAD}-byte cap")
    return _HEADER.pack(FRAME_MAGIC, ftype, seq, len(payload),
                        zlib.crc32(payload)) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    ``feed(data)`` hands over bytes (by reference, until ``frames()``
    has consumed them); ``frames()`` yields complete ``(type, seq,
    payload)`` triples, verifying magic, CRC32, and the per-connection
    sequence number as it goes.  ``check_eof()`` is called by the
    connection when the peer closes: a partial frame still buffered at
    that point is a :class:`FrameTruncated`, not a clean EOF.

    A payload is collected in one ``bytearray`` of the length its header
    states and yielded as is: what a frame costs in memory follows from
    the frame, never from the read sizes, i.e. timing (DESIGN.md §5k).
    """

    def __init__(self):
        self._fed: deque = deque()      # fed views, not yet in a frame
        self._head = bytearray(HEADER_SIZE)
        self._part = self._head         # being collected: header or payload
        self._have = 0                  # ... and how much of it is here
        self._expect_seq = 0

    @property
    def pending_bytes(self) -> int:
        return (self._have + sum(map(len, self._fed))
                + (HEADER_SIZE if self._part is not self._head else 0))

    def feed(self, data) -> None:
        self._fed.append(memoryview(data))

    def _fill(self) -> bool:
        """Move fed bytes into the part being collected; True if full."""
        with memoryview(self._part) as part:    # view to view: one memcpy
            while self._have < len(part) and self._fed:
                chunk = self._fed.popleft()
                n = min(len(chunk), len(part) - self._have)
                part[self._have:self._have + n] = chunk[:n]
                self._have += n
                if n < len(chunk):
                    self._fed.appendleft(chunk[n:])
            return self._have == len(part)

    def frames(self) -> Iterator[Tuple[bytes, int, bytearray]]:
        while self._fill():             # else incomplete; wait for more
            magic, ftype, seq, length, crc = _HEADER.unpack(self._head)
            if self._part is self._head:
                if magic != FRAME_MAGIC:
                    raise FrameError(f"bad frame magic {bytes(magic)!r} "
                                     f"(stream lost sync)")
                if ftype not in (DATA, PING, PONG):
                    raise FrameError(f"unknown frame type {bytes(ftype)!r}")
                if length > MAX_FRAME_PAYLOAD:
                    raise FrameError(
                        f"frame length {length} exceeds the "
                        f"{MAX_FRAME_PAYLOAD}-byte cap (corrupt header?)")
                self._part, self._have = bytearray(length), 0
                continue
            payload, self._part, self._have = self._part, self._head, 0
            got = zlib.crc32(payload)
            if got != crc:
                raise FrameCRCError(
                    f"frame {seq} payload CRC32 mismatch "
                    f"(expected {crc:#010x}, got {got:#010x})")
            if seq != self._expect_seq:
                raise FrameSequenceError(
                    f"expected frame {self._expect_seq}, got {seq} "
                    f"(lost or replayed frame)")
            self._expect_seq += 1
            yield ftype, seq, payload

    def check_eof(self) -> None:
        """Raise :class:`FrameTruncated` if EOF split a frame."""
        if self.pending_bytes:
            raise FrameTruncated(
                f"connection closed mid-frame ({self.pending_bytes} bytes "
                f"of an incomplete frame buffered)")


class FrameConnection:
    """A framed, heartbeat-aware message connection over one socket.

    Connection surface: ``send(obj)`` / ``recv()`` move pickled
    Python messages, ``poll(timeout)`` reports whether ``recv`` would
    return immediately, ``fileno()`` plugs into
    ``multiprocessing.connection.wait``, and a closed peer surfaces as
    :class:`EOFError` (clean close at a frame boundary) or
    :class:`FrameTruncated` (close mid-frame).  PING/PONG keepalives
    are answered inside ``poll``/``recv`` — callers only ever see DATA
    messages — and every received frame (of any type) refreshes
    :attr:`last_heard`, the master's missed-heartbeat signal.
    """

    def __init__(self, sock: socket.socket, name: str = "peer"):
        self.name = name
        self._sock = sock
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:         # AF_UNIX (a socketpair): no Nagle
            pass
        self._decoder = FrameDecoder()
        self._queue: deque = deque()
        self._send_seq = 0
        self._eof = False
        self._closed = False
        self.last_heard = time.monotonic()
        self.last_ping = 0.0

    # -- outbound ------------------------------------------------------
    def _send_frame(self, ftype: bytes, payload: bytes = b"") -> None:
        if self._closed:
            raise OSError(errno.EBADF, "connection is closed")
        frame = encode_frame(ftype, self._send_seq, payload)
        self._send_seq += 1
        self._sock.sendall(frame)

    def send(self, obj) -> None:
        """Pickle *obj* into one DATA frame.  Raises ``OSError`` when
        the peer is gone."""
        self._send_frame(DATA, pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))

    def ping(self) -> None:
        """Send one keepalive frame (the reply refreshes *last_heard*)."""
        self.last_ping = time.monotonic()
        self._send_frame(PING)

    # -- inbound -------------------------------------------------------
    def _on_frame(self, ftype: bytes, payload: bytes) -> None:
        self.last_heard = time.monotonic()
        if ftype == DATA:
            self._queue.append(pickle.loads(payload))
        elif ftype == PING:
            try:
                self._send_frame(PONG)
            except OSError:  # pragma: no cover - peer died mid-exchange
                pass
        # PONG: nothing beyond the last_heard refresh.

    def _read_chunk(self) -> bool:
        """One blocking socket read; returns False on EOF."""
        try:
            data = self._sock.recv(_CHUNK)
        except (ConnectionResetError, BrokenPipeError):
            data = b""
        if not data:
            self._eof = True
            return False
        self._decoder.feed(data)
        for ftype, _seq, payload in self._decoder.frames():
            self._on_frame(ftype, payload)
        return True

    def poll(self, timeout: float = 0.0) -> bool:
        """True when ``recv`` would return (or raise) immediately."""
        if self._queue or self._eof:
            return True
        if self._closed:
            raise OSError(errno.EBADF, "connection is closed")
        deadline = time.monotonic() + max(0.0, timeout or 0.0)
        while True:
            left = max(0.0, deadline - time.monotonic())
            readable, _, _ = select.select([self._sock], [], [], left)
            if not readable:
                return False
            if not self._read_chunk() or self._queue:
                return True             # a message, or EOF for recv()
            if time.monotonic() >= deadline:
                return False

    def recv(self):
        """The next DATA message; blocks until one arrives.  A closed
        peer raises :class:`EOFError` (frame boundary) or
        :class:`FrameTruncated` (mid-frame)."""
        while True:
            if self._queue:
                return self._queue.popleft()
            if self._eof:
                self._decoder.check_eof()
                raise EOFError(f"{self.name}: connection closed")
            if self._closed:
                raise OSError(errno.EBADF, "connection is closed")
            self._read_chunk()

    # -- plumbing ------------------------------------------------------
    @property
    def queued(self) -> int:
        """Decoded DATA messages waiting in the connection (``recv``
        returns immediately).  The pool's pump must consult this before
        blocking in ``connection.wait``: wait() watches the socket fd,
        and one read can decode *several* frames — messages already
        buffered here generate no fd activity and would otherwise sit
        unserved until the peer's next send."""
        return len(self._queue)

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("eof" if self._eof else "open")
        return f"<FrameConnection {self.name} {state} q={len(self._queue)}>"


# ----------------------------------------------------------------------
def parse_address(value) -> Tuple[str, int]:
    """``"host:port"`` (or an already-split pair) → ``(host, port)``."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return str(value[0]), int(value[1])
    text = str(value).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"bad node address {value!r}; expected host:port")
    return host or "127.0.0.1", int(port)


def backoff_delay(attempt: int, *, base: float = 0.05, factor: float = 2.0,
                  max_delay: float = 2.0, jitter: float = 0.25,
                  rng: Optional[random.Random] = None) -> float:
    """The delay before retry *attempt* (0-based): capped exponential
    growth plus proportional jitter so a cluster of reconnecting
    masters cannot stampede one recovering node in lockstep."""
    delay = min(max_delay, base * (factor ** max(0, attempt)))
    if jitter > 0:
        delay *= 1.0 + jitter * (rng or random).random()
    return delay


def _tcp_connect(address: Tuple[str, int], timeout: float) -> socket.socket:
    return socket.create_connection(address, timeout=timeout)


def connect_backoff(address, *, attempts: int = 5,
                    base_delay: float = 0.05, factor: float = 2.0,
                    max_delay: float = 2.0, jitter: float = 0.25,
                    timeout: float = 2.0,
                    sleep: Callable[[float], None] = time.sleep,
                    rng: Optional[random.Random] = None,
                    connect: Optional[Callable] = None) -> socket.socket:
    """Connect to *address* with bounded exponential-backoff retries.

    Raises :class:`NodeConnectError` once *attempts* tries have failed;
    the clock (*sleep*), jitter source (*rng*), and the connect
    function itself are injectable so the schedule is assertable with a
    fake clock (no real sockets, no real sleeping).
    """
    address = parse_address(address)
    attempts = max(1, int(attempts))
    dial = connect or _tcp_connect
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            return dial(address, timeout)
        except OSError as exc:
            last = exc
        if attempt + 1 < attempts:
            sleep(backoff_delay(attempt, base=base_delay, factor=factor,
                                max_delay=max_delay, jitter=jitter, rng=rng))
    raise NodeConnectError(
        f"could not connect to {address[0]}:{address[1]} after "
        f"{attempts} attempt(s): {last}")
