"""Fragment packs in shared memory, and the one way to map a pack.

A fragment's packed scan structures (its residue section and the
per-sequence offsets tables — see :mod:`repro.blast.scankernel`) are
immutable once built, which makes them ideal for
``multiprocessing.shared_memory``: the master packs each in-RAM
fragment **once**, and every pool worker attaches the segment and
reconstructs zero-copy ``numpy`` views over it.  The description
strings and the global ids ride along in the same segment, so a worker
needs nothing but the :class:`PackSpec` — a small picklable descriptor
whose size does not grow with the pack — to serve searches against the
fragment.  A pack store's ``.rpk`` file holds the same bytes after its
header (:mod:`repro.exec.diskpack`), so a spec naming a file path and
the data region's offset is attached the same way: mapped read-only
from the file, nothing copied into shared memory
(:class:`AttachedPack`, which CRC-verifies either carrier).

Lifetime discipline (the same orphan-cleanup lesson PR 1 applied to
simulated I/O processes):

* every segment this process creates is tracked in a
  :class:`ShmRegistry` whose ``release_all`` runs at interpreter exit;
* Python's own ``resource_tracker`` is the crash net — if the creating
  process is SIGKILLed, the tracker daemon unlinks every registered
  segment when the pipe to its parent drops;
* workers *attach* but never own: the resource-tracker daemon is
  shared across the process tree (its fd is inherited under fork and
  spawn alike), so a worker's attach merely re-registers the name into
  the same set — workers only ``close()`` on teardown and must never
  unregister, or they would strip the creator's crash-net entry.

Segment names carry the ``repro_`` prefix so a leak check is one
``ls /dev/shm`` away (CI fails the job if any survive the suite).

A pack's sections (:data:`_FIELDS`, the same on every carrier):

* ``residues`` — every sequence's codes at flat positions, one
  separator slot between neighbours.  A nucleotide pack stores them 2
  bits each, four to the byte, first residue in the top bits, behind one
  zero byte and ahead of two more (the bytes the packed scan reads), so
  a fragment of N residues in n sequences takes ``ceil((N + n - 1) / 4)
  + 3`` bytes; separators are 0.  A protein pack stores one byte each,
  separators ``base``.  The quarter byte is what every copy, ship and
  CRC pass of a nucleotide pack moves;
* ``starts`` / ``lengths`` — int64 per sequence: where it starts among
  the flat positions and how many it holds;
* ``hdr_blob`` / ``hdr_offsets`` — the descriptions, UTF-8 back to back,
  and int64 offsets into them;
* ``source_ids`` — int64 per sequence: its ordinal in the whole
  database, what the merge relabels a fragment's hits with.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
import zlib
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory as _shm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.blast.scankernel import ScanStructures, build_scan_structures

#: Offsets inside a segment are aligned so every reconstructed array
#: view is at least cacheline-aligned.
_ALIGN = 64

#: Every segment this package creates starts with this prefix; the CI
#: leak check greps ``/dev/shm`` for it (and for ``psm_``, the stdlib's
#: anonymous default, which we never use on purpose).
NAME_PREFIX = "repro"

#: The sections serialized into a pack, in layout order (module
#: docstring): the ScanStructures arrays, the description strings
#: (``hdr_blob``/``hdr_offsets``) and the global ids.
_FIELDS = ("residues", "starts", "lengths", "hdr_blob", "hdr_offsets",
           "source_ids")
#: Bytes :meth:`PackView.corrupt` flips.
_CORRUPT_BYTES = 8


class PackIntegrityError(RuntimeError):
    """A shared-memory pack failed CRC32 verification.

    Raised at publish time (a torn write — the read-back of the fresh
    segment differs from the source arrays) or at attach time (the
    segment was corrupted between publish and attach).  Typed so the
    pool and CLI can fail loudly and distinctly instead of serving
    silent garbage hits from a damaged mapping.  Takes a plain message
    so it pickles across worker connections.
    """


def _integrity_error(name: str, field: str, expected: Optional[int],
                     got: int) -> PackIntegrityError:
    want = "none recorded" if expected is None else f"{expected:#010x}"
    return PackIntegrityError(
        f"pack {name!r}: field {field!r} CRC32 mismatch "
        f"(expected {want}, got {got:#010x})")


def _crc(arr: np.ndarray) -> int:
    """CRC32 over an array's raw bytes (contiguous by construction)."""
    return zlib.crc32(memoryview(arr).cast("B"))


@dataclass(frozen=True)
class PackSpec:
    """Picklable descriptor of one fragment pack, on every carrier.

    A shared-memory segment, an ``.rpk`` file's data region and a
    payload shipped to a node hold the same bytes (:func:`pack_layout`)
    under this one description: a local worker is sent it alone, a node
    beside the payload, and the ``.rpk`` header is its JSON form.  Only
    ``name`` (segment name or file path), ``offset`` and
    ``cache_token`` say where a pack lives: ``offset`` is where the
    data region starts in what ``name`` names — 0 in a segment, past
    the header in an ``.rpk`` file, which is how :class:`AttachedPack`
    tells the two apart.  Built by :func:`pack_spec`, read by
    :class:`PackView`.

    ``cache_token`` is the pack's ScanCache identity, minted from the
    parent database's existing token+version scheme as
    ``(parent_token, parent_version, fragment_id)`` — unique per
    fragment even when greedy binning yields fragments of identical
    shape, and stale by construction once the parent mutates.
    """

    name: str                     # segment name / pack file path
    cache_token: tuple
    seqtype: str
    fragment_id: Optional[int]
    k: int
    base: int
    n_sequences: int
    total_residues: int
    arrays: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    size: int
    #: CRC32 per serialized field, of the source arrays; a publish
    #: re-checks them from the segment's own bytes (a torn write fails
    #: at once) and every open re-verifies, a missing CRC failing it.
    checksums: Tuple[Tuple[str, int], ...]
    offset: int = 0               # data region's start in ``name``

    @property
    def source_ids(self) -> np.ndarray:
        """A copy of the pack's ``source_ids`` section, read from the
        carrier the spec names."""
        with AttachedPack(self, verify=False) as pack:
            return pack.source_ids.copy()


def pack_spec(dims: Mapping, layout, size: int, checksums, *, name: str,
              cache_token: tuple, seqtype: str, fragment_id: Optional[int],
              offset: int = 0) -> PackSpec:
    """Build a pack's descriptor — the only place one is made.

    *dims* maps ``k`` / ``base`` / ``n_sequences`` / ``total_residues``:
    ``vars()`` of the :class:`~repro.blast.scankernel.ScanStructures`
    being packed, or a decoded ``.rpk`` header.  Values are normalised
    (tuples, Python ints), so specs that came from numpy, JSON or a
    pickle compare equal when the content is.
    """
    return PackSpec(
        name=name, cache_token=cache_token, seqtype=seqtype,
        fragment_id=None if fragment_id is None else int(fragment_id),
        k=int(dims["k"]), base=int(dims["base"]),
        n_sequences=int(dims["n_sequences"]),
        total_residues=int(dims["total_residues"]),
        arrays=tuple((f, d, tuple(s), int(o)) for f, d, s, o in layout),
        size=int(size),
        checksums=tuple((f, int(c)) for f, c in checksums),
        offset=int(offset))


def _segment_name(fragment_id: Optional[int]) -> str:
    frag = "x" if fragment_id is None else str(fragment_id)
    return (f"{NAME_PREFIX}_{os.getpid()}_f{frag}_{secrets.token_hex(6)}")


def _parent_pid(pid: int) -> Optional[int]:
    """*pid*'s parent, or ``None`` when *pid* is not alive."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    # The command name (field 2) may hold spaces; the parent pid is the
    # second field after its closing parenthesis.
    return int(stat.rsplit(")", 1)[1].split()[1])


def _ours(pid: int) -> bool:
    """Whether a segment *pid* created may be this process's leak: *pid*
    is this process, one of its descendants, or no longer alive (and
    without ``/proc`` every segment counts)."""
    me = os.getpid()
    if _parent_pid(pid) is None:
        return True
    while pid is not None and pid > 1:
        if pid == me:
            return True
        pid = _parent_pid(pid)
    return False


def own_segments() -> List[str]:
    """The ``repro_<pid>_…`` segments in ``/dev/shm`` (the names
    :func:`_segment_name` writes) that this process, one of its
    descendants or a process now gone created, sorted: what a leak
    check may blame on this process while another process's pool runs
    on the same machine."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []
    own = []
    for name in names:
        parts = name.split("_")
        if (parts[0] == NAME_PREFIX and len(parts) > 2
                and parts[1].isdigit() and _ours(int(parts[1]))):
            own.append(name)
    return sorted(own)


def ensure_tracker() -> None:
    """Start the resource-tracker daemon in *this* process now.

    The pool calls this before spawning workers: the tracker starts
    lazily on first shared-memory use, and a worker forked before that
    point would lazily spawn its *own* tracker whose attach
    registrations nothing ever unlinks (spurious leak warnings at
    worker exit).  Started eagerly, every child inherits the parent
    tracker's fd and all registrations land in one shared cache where
    create/attach re-registration is idempotent and the single
    unlink-time unregister clears the name for good.
    """
    try:  # pragma: no cover - trivial passthrough to stdlib
        resource_tracker.ensure_running()
    except Exception:
        pass


class ShmRegistry:
    """Owner-side ledger of created segments with guaranteed unlink.

    ``release_all`` runs via ``atexit`` in the creating process only
    (children forked from it inherit the ledger but never own the
    segments, so release checks the pid).
    """

    def __init__(self):
        self._segments: Dict[str, object] = {}
        self._pid = os.getpid()
        atexit.register(self.release_all)

    def register(self, shm) -> None:
        self._segments[shm.name] = shm

    def names(self) -> List[str]:
        return list(self._segments)

    def unmap(self, name: str) -> None:
        """Drop the owner's mapping; the name stays ours to unlink."""
        self._segments[name].close()

    def release(self, name: str) -> bool:
        """Unlink and close one segment; idempotent, crash-tolerant."""
        shm = self._segments.pop(name, None)
        # A forked child's copy of the ledger owns nothing.
        if shm is None or os.getpid() != self._pid:
            return False
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        try:
            shm.close()
        except BufferError:  # pragma: no cover - live views; exit soon
            pass
        return True

    def release_all(self) -> int:
        released = 0
        for name in list(self._segments):
            released += bool(self.release(name))
        return released

    def __len__(self) -> int:
        return len(self._segments)


_DEFAULT_REGISTRY: Optional[ShmRegistry] = None


def default_registry() -> ShmRegistry:
    """The process-wide registry (created on first use, per process)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None or _DEFAULT_REGISTRY._pid != os.getpid():
        _DEFAULT_REGISTRY = ShmRegistry()
    return _DEFAULT_REGISTRY


# ----------------------------------------------------------------------
def pack_layout(structs: ScanStructures, descriptions: Sequence[str],
                source_ids: Sequence[int],
                **where) -> Tuple[PackSpec, Dict[str, np.ndarray]]:
    """Lay *structs* out as a pack: the canonical byte layout.

    *descriptions* and *source_ids* are the sequences' description
    strings and their ordinals in the whole database.  Returns the
    pack's :class:`PackSpec` (*where* is :func:`pack_spec`'s keywords)
    and the contiguous source arrays by field name.  The spec's section
    table puts every field at an offset rounded up to :data:`_ALIGN`;
    its checksums are the **source** arrays' CRC32s, so whoever copies
    the arrays somewhere proves the copy by re-checksumming it against
    the spec.  This single function defines the layout for shared-memory
    segments (:func:`create_pack`), on-disk packs
    (:mod:`repro.exec.diskpack`) and shipped payloads alike, which is
    what lets a pool worker map a pack file where a segment would be,
    and a node republish shipped bytes, without re-encoding.
    """
    hdr_parts = [d.encode() for d in descriptions]
    hdr_offsets = np.zeros(len(hdr_parts) + 1, dtype=np.int64)
    if hdr_parts:
        np.cumsum([len(b) for b in hdr_parts], out=hdr_offsets[1:])
    hdr_blob = np.frombuffer(b"".join(hdr_parts), dtype=np.uint8)

    arrays = {
        "residues": structs.residues, "starts": structs.starts,
        "lengths": structs.lengths,
        "hdr_blob": hdr_blob, "hdr_offsets": hdr_offsets,
        "source_ids": np.asarray(source_ids, dtype=np.int64),
    }
    layout, checksums = [], []
    offset = 0
    for field in _FIELDS:
        arr = np.ascontiguousarray(arrays[field])
        arrays[field] = arr
        layout.append((field, arr.dtype.str, arr.shape, offset))
        checksums.append((field, _crc(arr)))
        offset += -(-arr.nbytes // _ALIGN) * _ALIGN
    return pack_spec(vars(structs), layout, offset, checksums, **where), arrays


class PackView:
    """One pack's bytes seen through its spec: *(spec, buffer, base
    offset)* in, zero-copy ``numpy`` field views out — the only reader
    of ``spec.arrays``.  :attr:`structs` is the reconstructed
    :class:`~repro.blast.scankernel.ScanStructures`, :attr:`hdr_blob` /
    :attr:`hdr_offsets` the description strings, :attr:`data` the raw
    data region (what a bulk copy moves).  :class:`AttachedPack` and
    :class:`repro.exec.diskpack.DiskPack` only differ in where the
    buffer comes from.
    """

    def __init__(self, spec: PackSpec, buf, base: int = 0):
        self.spec = spec
        self.data = memoryview(buf)[base:base + spec.size]
        views = {field: np.ndarray(shape, dtype=dtype, buffer=self.data,
                                   offset=off)
                 for field, dtype, shape, off in spec.arrays}
        self._views: Optional[Dict[str, np.ndarray]] = views
        self.hdr_blob: np.ndarray = views["hdr_blob"]
        self.hdr_offsets: np.ndarray = views["hdr_offsets"]
        self.source_ids: np.ndarray = views["source_ids"]
        self.structs = ScanStructures(
            k=spec.k, base=spec.base, n_sequences=spec.n_sequences,
            total_residues=spec.total_residues, residues=views["residues"],
            starts=views["starts"], lengths=views["lengths"])

    def verify(self) -> None:
        """Re-checksum every field against the spec; raises
        :class:`PackIntegrityError` on the first mismatch, or on a
        field the spec records no CRC32 for."""
        recorded = dict(self.spec.checksums)
        for field, view in self._views.items():
            want, got = recorded.get(field), _crc(view)
            if want != got:
                raise _integrity_error(self.spec.name, field, want, got)

    def corrupt(self, field: Optional[str] = None) -> str:
        """Flip :data:`_CORRUPT_BYTES` in the middle of *field*
        (default: whichever field has the most bytes — ``residues`` on
        any corpus-sized pack, a per-sequence table on a tiny one) and
        return the field's name.
        The one fault hook behind every scribbler — a segment, a mapped
        file, a payload about to be republished — so the damage always
        lands on checksummed payload, never on alignment padding.
        Test/chaos use only; needs a writable buffer."""
        if field is None:
            field = max(self._views, key=lambda f: self._views[f].nbytes)
        raw = self._views[field].reshape(-1).view(np.uint8)
        if raw.size == 0:
            raise ValueError(f"field {field!r} is empty; nothing to corrupt")
        start = max(0, raw.size // 2 - 1)
        raw[start:start + _CORRUPT_BYTES] ^= 0xFF
        return field

    def close(self) -> None:
        """Drop the views and the data region (idempotent).  Whoever
        opened the buffer closes it after this."""
        self.structs = self.hdr_blob = self.hdr_offsets = None
        self.source_ids = self._views = None
        self.data.release()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _publish(spec: PackSpec, source,
             registry: Optional[ShmRegistry]) -> PackSpec:
    """Allocate a segment for *spec*'s pack, fill it from *source* (the
    field arrays by name: one copy per field; or the data region as one
    buffer: one bulk copy), re-checksum it from the segment's own bytes,
    register it for unlink and return the spec under its new name."""
    spec = replace(spec, name=_segment_name(spec.fragment_id), offset=0)
    shm = _shm.SharedMemory(name=spec.name, create=True,
                            size=max(spec.size, 1))
    try:
        with PackView(spec, shm.buf) as view:
            if isinstance(source, dict):
                for field, arr in source.items():
                    view._views[field][...] = arr
            else:
                view.data[:] = source
            # Publish-time integrity: a torn write fails here, and the
            # recorded CRCs let every attach re-verify cheaply.
            view.verify()
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    # Explicit None check: an *empty* ShmRegistry is falsy (__len__).
    (registry if registry is not None else default_registry()).register(shm)
    return spec


def create_pack(structs: ScanStructures, descriptions: Sequence[str],
                seqtype: str, cache_token: tuple,
                fragment_id: Optional[int] = None,
                source_ids: Optional[Sequence[int]] = None,
                registry: Optional[ShmRegistry] = None) -> PackSpec:
    """Copy packed scan structures into a fresh shared-memory segment.

    Returns the :class:`PackSpec` workers attach with.  The segment is
    registered for unlink in *registry* (default: the process-wide
    one).
    """
    spec, arrays = pack_layout(
        structs, descriptions,
        range(structs.n_sequences) if source_ids is None else source_ids,
        name="", cache_token=cache_token, seqtype=seqtype,
        fragment_id=fragment_id)
    return _publish(spec, arrays, registry)


def pack_fragment(db, k: int, base: int, cache_token: tuple,
                  registry: Optional[ShmRegistry] = None) -> PackSpec:
    """Build scan structures for a fragment database and publish them
    as a shared-memory pack in one step."""
    structs = build_scan_structures(db, k, base)
    descriptions = [db.description(i) for i in range(len(db))]
    return create_pack(structs, descriptions, db.seqtype, cache_token,
                       fragment_id=db.fragment_id,
                       source_ids=getattr(db, "source_ids", None),
                       registry=registry)


def publish_pack_bytes(data, spec: PackSpec, *,
                       registry: Optional[ShmRegistry] = None) -> PackSpec:
    """Publish an already-encoded pack data region into shared memory.

    *data* is the raw byte region *spec* describes: the payload a node
    received.  The bytes are bulk-copied into a fresh segment (one
    memcpy, no re-encoding) and every field is re-checksummed from the
    segment itself against the spec's CRC32s, so a torn copy or a
    corrupted source fails with :class:`PackIntegrityError` before any
    task can read it; returns *spec* under the segment's name.
    """
    if len(data) != spec.size:
        raise PackIntegrityError(f"pack data region is {len(data)} bytes, "
                                 f"layout expects {spec.size}")
    return _publish(spec, data, registry)


def read_pack_bytes(spec: PackSpec) -> bytes:
    """Copy a pack's whole data region out of its carrier: a segment,
    or the ``.rpk`` file a store's spec names.

    This is the master-side half of pack *shipping*: the bytes follow
    the canonical :func:`pack_layout`, so a remote node can republish
    them through :func:`publish_pack_bytes` — which re-verifies every
    per-field CRC32 from its own fresh segment, catching corruption
    introduced anywhere along the read → frame → copy chain.
    """
    with AttachedPack(spec, verify=False) as pack:
        return bytes(pack.data)


def corrupt_segment(spec: PackSpec, field: Optional[str] = None) -> str:
    """:meth:`PackView.corrupt` on a published pack's segment: the
    torn-segment fault that attach-time CRC verification must catch."""
    with AttachedPack(spec, verify=False) as pack:
        return pack.corrupt(field)


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable descriptor of one worker's shm result arena."""

    name: str
    size: int


class ResultArena:
    """A per-worker shared-memory slab for batched result shipping.

    No runtime path creates one (a result is one pickle, DESIGN.md
    §5g); it and :class:`ArenaSpec` stay for ``perf/harness/layers.py``
    until ROADMAP 2(a).  The design it was built for:

    The worker serializes a completed task's results
    (:mod:`repro.exec.results`), writes the blob into its arena, and
    sends only a small ``(offset, nbytes, crc)`` descriptor over the
    pipe; the master reads the blob back and verifies the CRC32 before
    decoding — the same integrity discipline as pack fields, so a torn
    or scribbled arena raises :class:`PackIntegrityError` instead of
    producing silent garbage hits.  One writer (the worker), one
    reader (the master), strictly alternating: the master consumes a
    descriptor before it dispatches the worker's next task, so a
    single slot at offset 0 is race-free.
    """

    def __init__(self, spec: ArenaSpec, create: bool = False,
                 registry: Optional[ShmRegistry] = None):
        self.spec = spec
        self._shm = _shm.SharedMemory(name=spec.name, create=create,
                                      size=spec.size if create else 0)
        if create:
            (registry if registry is not None
             else default_registry()).register(self._shm)

    @classmethod
    def create(cls, size: int, tag: str = "a",
               registry: Optional[ShmRegistry] = None) -> "ResultArena":
        """Allocate a fresh arena (master side; registered for unlink)."""
        name = (f"{NAME_PREFIX}_{os.getpid()}_arena_{tag}_"
                f"{secrets.token_hex(6)}")
        return cls(ArenaSpec(name=name, size=max(int(size), 1)), create=True,
                   registry=registry)

    @property
    def size(self) -> int:
        return self.spec.size

    def write(self, blob: bytes, offset: int = 0) -> Tuple[int, int, int]:
        """Copy *blob* into the arena; returns ``(offset, nbytes, crc)``
        — the descriptor the pipe carries instead of the payload."""
        n = len(blob)
        if offset < 0 or offset + n > self.spec.size:
            raise ValueError(f"blob of {n} bytes does not fit arena "
                             f"{self.spec.name!r} ({self.spec.size} bytes) "
                             f"at offset {offset}")
        self._shm.buf[offset:offset + n] = blob
        return offset, n, zlib.crc32(blob)

    def read(self, offset: int, nbytes: int, crc: int) -> bytes:
        """Read a descriptor's payload back, verifying its CRC32;
        raises :class:`PackIntegrityError` on mismatch."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.spec.size:
            raise PackIntegrityError(
                f"arena {self.spec.name!r}: descriptor ({offset}, {nbytes}) "
                f"exceeds arena size {self.spec.size}")
        blob = bytes(self._shm.buf[offset:offset + nbytes])
        got = zlib.crc32(blob)
        if got != crc:
            raise PackIntegrityError(
                f"arena {self.spec.name!r}: result blob CRC32 mismatch "
                f"(expected {crc:#010x}, got {got:#010x})")
        return blob

    def close(self) -> None:
        """Drop the mapping (the creating registry owns the unlink)."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live views; exit soon
            pass


def _map_file(path: str, end: int, writable: bool) -> mmap.mmap:
    """Map the pack file *path*, which must hold at least *end* bytes:
    read-only, or copy-on-write when *writable* (the file is never
    written either way)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < end:
            raise PackIntegrityError(
                f"pack {path!r}: truncated data region ({size} bytes on "
                f"disk, header expects {end})")
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY
                         if writable else mmap.ACCESS_READ)


class AttachedPack(PackView):
    """A pack mapped into this process: zero-copy views, no ownership.

    A spec whose ``offset`` is 0 names a shared-memory segment, opened
    by name; any other names an ``.rpk`` file, mapped by path and read
    from that offset on (*writable* maps it copy-on-write, so a fault
    hook can scribble this process's view and never the store).
    Attach verifies the mapping against the spec's recorded CRC32s by
    default (*verify=False* skips it, e.g. for a copy of bytes verified
    on the way in), so a corrupted or torn mapping raises
    :class:`PackIntegrityError` before a single hit can be computed
    from it.
    """

    def __init__(self, spec: PackSpec, verify: bool = True,
                 writable: bool = False):
        self._shm = self._mmap = None
        if spec.offset:
            self._mmap = _map_file(spec.name, spec.offset + spec.size,
                                   writable)
            super().__init__(spec, self._mmap, spec.offset)
        else:
            self._shm = _shm.SharedMemory(name=spec.name)
            super().__init__(spec, self._shm.buf)
        if verify:
            try:
                self.verify()
            except PackIntegrityError:
                self.close()
                raise

    def close(self) -> None:
        """Drop the mapping (never unlinks — the creator owns that).
        Tolerates still-exported views; the mapping then lives until
        process exit, which is where teardown calls this anyway."""
        super().close()
        try:
            if self._shm is not None:
                self._shm.close()
            elif self._mmap is not None:
                self._mmap.close()
        except BufferError:
            pass


class PackDB:
    """Duck-typed ``SequenceDB`` surface over an attached pack.

    Serves the search driver in a worker without ever copying the
    residue section: ``sequence(i)`` reads one sequence out of it (a
    view of a protein pack's bytes, decoded from a nucleotide pack's
    2 bits), descriptions decode lazily from the shared header blob.
    Answers the driver's ``scan_structures`` question itself — the pack
    *is* the scan structure — and carries the pack's identity as
    ``_scan_token``.
    """

    def __init__(self, pack: AttachedPack):
        spec = pack.spec
        self._pack = pack
        self.seqtype = spec.seqtype
        self.name = spec.name
        self.fragment_id = spec.fragment_id
        self.source_ids = pack.source_ids
        # The pack's token is the whole identity: two packs can never
        # alias under it.
        self._scan_token = spec.cache_token
        self._version = 0
        self._hdr_cache: Dict[int, str] = {}

    def __len__(self) -> int:
        return self._pack.spec.n_sequences

    @property
    def n_sequences(self) -> int:
        return self._pack.spec.n_sequences

    @property
    def total_residues(self) -> int:
        return self._pack.spec.total_residues

    def lengths(self) -> List[int]:
        return [int(x) for x in self._pack.structs.lengths]

    def scan_structures(self, k: int, base: int):
        """The pack's own structures, for any *k* over its alphabet.

        The search driver prefers this provider over a
        :class:`~repro.blast.scankernel.ScanCache` rebuild — the pack
        already *is* the scan structure, in shm or mmapped from disk,
        and the scan takes the word size from the query batch.
        ``None`` (the cache fallback) only for another *base*.
        """
        s = self._pack.structs
        return s if s.base == base else None

    def sequence(self, i: int) -> np.ndarray:
        return self._pack.structs.subject(i)

    def description(self, i: int) -> str:
        desc = self._hdr_cache.get(i)
        if desc is None:
            lo = int(self._pack.hdr_offsets[i])
            hi = int(self._pack.hdr_offsets[i + 1])
            desc = bytes(self._pack.hdr_blob[lo:hi]).decode()
            self._hdr_cache[i] = desc
        return desc

    def __iter__(self):
        return ((self.description(i), self.sequence(i))
                for i in range(len(self)))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PackDB {self.name!r} {self.seqtype} n={len(self)} "
                f"residues={self.total_residues}>")
