"""Persistent on-disk fragment packs: the paper-scale database format.

The paper formats a 2.7 GB ``nt`` once with ``formatdb`` and then every
search run attaches to the preformatted files; our fragment packs were
rebuilt in RAM per process, so every restart repaid the whole publish
cost.  This module makes a pack *persistent*: a versioned, checksummed,
mmap-able file whose data region is **byte-identical** to a
shared-memory segment's (:func:`repro.exec.shm.pack_layout` defines the
layout for both), so a cold start is either a zero-copy ``mmap``
(serial search) or one ``memcpy`` into shm (the pool) — never a
re-encode.

Layout of one ``.rpk`` pack file::

    [preamble, 32 B ]  magic ``RPKPACK1``, format version, flags,
                       header length, header CRC32, padding
    [header,   JSON ]  seqtype, word size/base, counts, global source
                       ids, the ScanCache identity, the section table
                       ``(field, dtype, shape, offset)`` and per-field
                       CRC32s — the same fields, order and 64-byte
                       alignment as a shm segment
    [pad to 64 B    ]
    [data region    ]  the sections themselves

A *pack store* is a directory of pack files plus a ``manifest.json``
naming them.  The manifest is written last via atomic rename, making it
the commit point: a build crashing at any earlier moment leaves no
readable store (only a stale ``.rpk-build-*`` spool directory and
``*.tmp`` files, which the next build sweeps), and each pack file is
itself committed with the same ``tmp → fsync → rename`` discipline, so
a readable ``.rpk`` is always complete.

Integrity taxonomy (the "never a wrong answer" contract):

* :class:`PackFormatError` — wrong magic or an unsupported format
  version: this reader must not interpret the bytes at all;
* :class:`~repro.exec.shm.PackIntegrityError` (its base) — right
  format, damaged content: truncation, header CRC mismatch, a
  section failing its CRC32 at open/attach, or a manifest entry not
  matching the pack file it names.

Both are raised before a single hit can be computed from the data.

The streaming builder (:class:`PackStoreBuilder`) formats arbitrarily
large FASTA in bounded memory: records stream in one at a time
(:func:`repro.blast.fasta.iter_fasta`) and are spilled to one spool
file as they arrive; finalize bins them with
:func:`repro.blast.seqdb.plan_fragments` (the fragments the pool cuts
from the same database) and packs one fragment at a time, copying each
bin's records out of the spool, so peak memory is one fragment's scan
structures, never the corpus.  The spool itself stays on disk until the
last fragment is packed.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import secrets
import shutil
import struct
import zlib
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.blast.alphabet import DNA, PROTEIN, encode_dna, encode_protein
from repro.blast.fasta import FastaRecord, iter_fasta
from repro.blast.scankernel import ScanStructures, build_scan_structures
from repro.blast.profile import profiled
from repro.blast.search import (SearchParams, SearchResults,
                                merge_fragment_results, prepare_queries)
from repro.blast.seqdb import AA, NT, SequenceDB, plan_fragments
from repro.exec.shm import (_ALIGN, PackDB, PackIntegrityError, PackSpec,
                            PackView, pack_layout, pack_spec)

#: File magic: 8 bytes, ASCII, format generation baked into the name.
MAGIC = b"RPKPACK1"

#: On-disk format version; bumped on any incompatible layout change.
#: Readers reject any other version (version negotiation is explicit:
#: there is exactly one readable version per build).  2: a pack has no
#: position-table section; 3: no word-code section either.
FORMAT_VERSION = 3

#: Pack files end in this; the manifest names them relative to the
#: store directory.
PACK_SUFFIX = ".rpk"

#: The store's commit point: written last, atomically.
MANIFEST_NAME = "manifest.json"

#: Streaming builds spool into a dot-directory with this prefix inside
#: the destination store (same filesystem — ``os.replace`` must be
#: atomic); leftovers from a crashed build are swept by the next one.
BUILD_DIR_PREFIX = ".rpk-build-"

#: ``<8sIIQI``: magic, format version, flags, header length, header
#: CRC32 — 28 bytes, padded to 32.
_PREAMBLE = struct.Struct("<8sIIQI")
_PREAMBLE_SIZE = 32

#: Crash hooks for the atomic-commit tests: after N section writes the
#: builder ``os._exit``\ s, simulating a mid-build kill; the manifest
#: hook dies after every pack is committed but before the store is.
_CRASH_SECTIONS_ENV = "REPRO_DISKPACK_CRASH_AFTER_SECTIONS"
_CRASH_MANIFEST_ENV = "REPRO_DISKPACK_CRASH_BEFORE_MANIFEST"
_CRASH_EXIT = 86

#: Every store directory a builder of this process has targeted; the
#: test suite's leak fixture sweeps these for stray build artifacts.
_BUILD_ROOTS: Set[str] = set()

#: Live DiskPack mappings in this process (id → path): the pool's
#: cold start must publish-and-close, and ``ExecPool.close()`` must
#: leave this empty — the mmap-still-open regression check.
_OPEN_PACKS: Dict[int, str] = {}


class PackFormatError(PackIntegrityError):
    """The file is not a pack this reader can interpret: wrong magic or
    an unsupported format version.  Subclasses
    :class:`~repro.exec.shm.PackIntegrityError` so every open failure
    is typed and catchable as one family, while version-negotiation
    failures stay distinguishable from damage to a well-formed pack."""


def _version_error(where: str, version) -> PackFormatError:
    return PackFormatError(
        f"{where}: unsupported format version {version!r} (this build "
        f"reads version {FORMAT_VERSION}; rebuild the store from its "
        f"FASTA with `repro packdb build -i FASTA -o DIR`)")


def _align64(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def build_roots() -> Set[str]:
    """Store directories builders of this process have written into."""
    return set(_BUILD_ROOTS)


def open_pack_count() -> int:
    """Live mmapped packs in this process (leak/regression checks)."""
    return len(_OPEN_PACKS)


_section_writes = 0


def _maybe_crash_after_section() -> None:
    global _section_writes
    raw = os.environ.get(_CRASH_SECTIONS_ENV) or ""
    if not raw.strip():
        return
    _section_writes += 1
    if _section_writes >= int(raw):
        os._exit(_CRASH_EXIT)


def _maybe_crash_before_manifest() -> None:
    if (os.environ.get(_CRASH_MANIFEST_ENV) or "").strip():
        os._exit(_CRASH_EXIT)


# ----------------------------------------------------------------------
# One pack file
# ----------------------------------------------------------------------
def write_pack(path: str, structs: ScanStructures,
               descriptions: Sequence[str], *, seqtype: str,
               store_id: str, version: int, fragment_id: int,
               source_ids: Sequence[int]) -> dict:
    """Serialize one fragment's scan structures to *path*, atomically.

    The data region follows the canonical
    :func:`~repro.exec.shm.pack_layout` byte-for-byte.  The file is
    assembled as ``path + ".tmp"``, fsynced, then renamed into place —
    a crash at any point leaves either no file or a ``.tmp`` no reader
    ever opens, never a readable partial pack.  Returns the header
    dict.
    """
    spec, arrays = pack_layout(
        structs, descriptions, name=path,
        cache_token=(("rpk", store_id), int(version), int(fragment_id)),
        seqtype=seqtype, fragment_id=fragment_id, source_ids=source_ids)
    # Key order is part of the committed format: json.dumps keeps it
    # and the header CRC32 covers it.  _read_header is the inverse.
    header = {
        "format_version": FORMAT_VERSION,
        "seqtype": spec.seqtype,
        "k": spec.k,
        "base": spec.base,
        "n_sequences": spec.n_sequences,
        "total_residues": spec.total_residues,
        "fragment_id": spec.fragment_id,
        "store_id": store_id,
        "version": int(version),
        "source_ids": list(spec.source_ids),
        "sections": [[f, d, list(s), o] for f, d, s, o in spec.arrays],
        "data_size": spec.size,
        "checksums": [[f, c] for f, c in spec.checksums],
    }
    blob = json.dumps(header, separators=(",", ":")).encode()
    preamble = _PREAMBLE.pack(MAGIC, FORMAT_VERSION, 0, len(blob),
                              zlib.crc32(blob))
    preamble += b"\0" * (_PREAMBLE_SIZE - len(preamble))
    data_off = _align64(_PREAMBLE_SIZE + len(blob))

    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(preamble)
        f.write(blob)
        # Alignment padding is whatever the seeks skip: it reads back
        # as zeros, in the file as in a fresh segment.
        for field, _dtype, _shape, off in spec.arrays:
            f.seek(data_off + off)
            f.write(memoryview(arrays[field]).cast("B"))
            _maybe_crash_after_section()
        f.truncate(data_off + spec.size)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return header


def _read_header(f, path: str) -> Tuple[PackSpec, int]:
    """Parse and validate preamble + header; returns the spec the
    header records (named after *path*) and the data region's offset."""
    raw = f.read(_PREAMBLE_SIZE)
    if len(raw) < _PREAMBLE_SIZE:
        raise PackIntegrityError(
            f"pack {path!r}: truncated preamble "
            f"({len(raw)} of {_PREAMBLE_SIZE} bytes)")
    magic, version, _flags, hlen, hcrc = _PREAMBLE.unpack(
        raw[:_PREAMBLE.size])
    if magic != MAGIC:
        raise PackFormatError(
            f"pack {path!r}: bad magic {magic!r} (not an {MAGIC.decode()}"
            f" pack)")
    if version != FORMAT_VERSION:
        raise _version_error(f"pack {path!r}", version)
    blob = f.read(hlen)
    if len(blob) < hlen:
        raise PackIntegrityError(
            f"pack {path!r}: truncated header ({len(blob)} of {hlen} bytes)")
    got = zlib.crc32(blob)
    if got != hcrc:
        raise PackIntegrityError(
            f"pack {path!r}: header CRC32 mismatch "
            f"(expected {hcrc:#010x}, got {got:#010x})")
    try:
        header = json.loads(blob)
    except ValueError as exc:  # pragma: no cover - CRC passed, bad JSON
        raise PackIntegrityError(f"pack {path!r}: undecodable header "
                                 f"({exc})") from exc
    spec = pack_spec(
        header, header["sections"], header["data_size"],
        header["checksums"], name=path,
        cache_token=(("rpk", header["store_id"]), header["version"],
                     header["fragment_id"]),
        seqtype=header["seqtype"], fragment_id=header["fragment_id"],
        source_ids=header["source_ids"])
    return spec, _align64(_PREAMBLE_SIZE + hlen)


class DiskPack(PackView):
    """One pack file mapped read-only into this process.

    Opening verifies the preamble, the header CRC32 and every section's
    CRC32 against the header's table, so a corrupted file raises a
    typed :class:`~repro.exec.shm.PackIntegrityError` before any search
    can see its bytes.  :attr:`spec` is the header decoded; the
    reconstructed :attr:`structs` views are zero-copy into the mapping
    and :attr:`data` is the raw data region for the pool's bulk copy
    into shm (:func:`~repro.exec.shm.publish_pack_bytes`).
    """

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "rb")
        self._mmap: Optional[mmap.mmap] = None
        try:
            spec, data_off = _read_header(self._file, path)
            file_size = os.fstat(self._file.fileno()).st_size
            if file_size < data_off + spec.size:
                raise PackIntegrityError(
                    f"pack {path!r}: truncated data region "
                    f"({file_size} bytes on disk, header expects "
                    f"{data_off + spec.size})")
            self._mmap = mmap.mmap(self._file.fileno(), 0,
                                   access=mmap.ACCESS_READ)
            super().__init__(spec, self._mmap, data_off)
            _OPEN_PACKS[id(self)] = path
            self.verify()
        except BaseException:
            self.close()
            raise

    @property
    def identity(self) -> tuple:
        """The pack's ScanCache identity, ``(token, version,
        fragment_id)`` with the store's ``("rpk", store_id)`` as token —
        same shape as the in-RAM scheme, stale by construction once the
        fragment is rebuilt (its version bumps)."""
        return self.spec.cache_token

    def close(self) -> None:
        """Release the views and unmap.  A caller still holding
        exported views (e.g. a live :class:`~repro.exec.shm.PackDB`)
        keeps the mapping alive until those die; the file descriptor is
        closed either way."""
        _OPEN_PACKS.pop(id(self), None)
        if hasattr(self, "data"):
            super().close()
        if self._mmap is not None:
            try:
                self._mmap.close()
                self._mmap = None
            except BufferError:  # pragma: no cover - external live views
                pass
        self._file.close()

    def __repr__(self) -> str:  # pragma: no cover
        s = self.spec
        return (f"<DiskPack {self.path!r} {s.seqtype} "
                f"frag={s.fragment_id} n={s.n_sequences} "
                f"residues={s.total_residues}>")


def corrupt_pack_file(path: str, field: Optional[str] = None) -> str:
    """Scribble bytes inside one region of a pack file (test hook).

    *field* is a section name from the header's table, or the pseudo
    targets ``"preamble"`` (damages the magic) and ``"header"``
    (damages the JSON blob — which also holds the CRC table, so this
    doubles as the corrupt-the-checksums case; the preamble's header
    CRC32 catches it).  A section is damaged by
    :meth:`repro.exec.shm.PackView.corrupt`, the locator every carrier
    shares: mid-field, on checksummed payload, never on alignment
    padding.  Returns the corrupted region's name.
    """
    with open(path, "r+b") as f, mmap.mmap(f.fileno(), 0) as mm:
        if field == "preamble":
            mm[0] ^= 0xFF
        elif field == "header":
            hlen = _PREAMBLE.unpack_from(mm)[3]
            mm[_PREAMBLE_SIZE + hlen // 2] ^= 0xFF
        else:
            spec, data_off = _read_header(f, path)
            with PackView(spec, mm, data_off) as view:
                field = view.corrupt(field)
    return field


# ----------------------------------------------------------------------
# The store: a directory of packs + an atomically committed manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackEntry:
    """One pack as the manifest records it."""

    file: str
    fragment_id: int
    version: int
    n_sequences: int
    total_residues: int


class PackStore:
    """A committed directory of on-disk fragment packs.

    Duck-types the database surface the pool and CLI consume
    (``seqtype``, ``__len__``, ``total_residues``, ``fragment_id``,
    ``name``, plus the ScanCache identity pair ``_scan_token`` /
    ``_version``), so ``ExecPool.search_many(query, store, ...)`` cold-
    starts straight from disk.  ``_version`` is the store's
    ``db_version``; a committed store is never modified, so it stays
    what the builder wrote.
    """

    is_pack_store = True
    fragment_id: Optional[int] = None

    def __init__(self, directory: str, manifest: dict):
        self.directory = directory
        self.manifest = manifest
        self.name = manifest["name"]
        self.seqtype = manifest["seqtype"]
        self.k = int(manifest["k"])
        self.base = int(manifest["base"])
        self.store_id = manifest["store_id"]
        self.packs: List[PackEntry] = [
            PackEntry(file=p["file"], fragment_id=int(p["fragment_id"]),
                      version=int(p["version"]),
                      n_sequences=int(p["n_sequences"]),
                      total_residues=int(p["total_residues"]))
            for p in manifest["packs"]]
        self._scan_token = ("rpk", self.store_id)
        self._version = int(manifest["db_version"])

    @classmethod
    def open(cls, directory: str) -> "PackStore":
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.isfile(path):
            raise PackFormatError(
                f"{directory!r}: no {MANIFEST_NAME} — not a pack store "
                f"(or an uncommitted build); build one with "
                f"`repro packdb build -i FASTA -o DIR`")
        try:
            with open(path) as f:
                manifest = json.load(f)
        except ValueError as exc:
            raise PackFormatError(
                f"{directory!r}: unreadable manifest ({exc})") from exc
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise _version_error(f"store {directory!r}", version)
        return cls(directory, manifest)

    def __len__(self) -> int:
        return int(self.manifest["n_sequences"])

    @property
    def n_sequences(self) -> int:
        return len(self)

    @property
    def total_residues(self) -> int:
        return int(self.manifest["total_residues"])

    def pack_path(self, entry: PackEntry) -> str:
        return os.path.join(self.directory, entry.file)

    def open_packs(self) -> List[DiskPack]:
        """Map and CRC-verify every pack; on any failure, close what
        was opened and re-raise.  Each pack's recorded identity must
        match the manifest entry naming it — a swapped or stale file is
        damage, not a different answer."""
        packs: List[DiskPack] = []
        try:
            for entry in self.packs:
                pack = DiskPack(self.pack_path(entry))
                packs.append(pack)
                got = pack.identity
                want = (self._scan_token, entry.version, entry.fragment_id)
                if got != want:
                    raise PackIntegrityError(
                        f"pack {pack.path!r}: identity {got!r} does not "
                        f"match manifest entry {want!r} (swapped or stale "
                        f"pack file)")
        except BaseException:
            for pack in packs:
                pack.close()
            raise
        return packs

    def load_db(self) -> SequenceDB:
        """The whole store as one in-RAM database, in source-id order —
        what the translated programs, PSI-BLAST and alignment rendering
        read.  Every pack is CRC-verified on the way in."""
        records: List[Tuple[str, np.ndarray]] = [None] * len(self)
        packs = self.open_packs()
        try:
            for pack in packs:
                view = PackDB(pack)
                for i, gid in enumerate(pack.spec.source_ids):
                    records[gid] = (view.description(i),
                                    view.sequence(i).copy())
                del view
        finally:
            for pack in packs:
                pack.close()
        db = SequenceDB(self.seqtype, self.name)
        for description, sequence in records:
            db.add(description, sequence)
        return db

    def verify(self) -> int:
        """CRC-verify every pack; returns the number checked."""
        for pack in self.open_packs():
            pack.close()
        return len(self.packs)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PackStore {self.directory!r} {self.seqtype} "
                f"packs={len(self.packs)} n={len(self)} "
                f"residues={self.total_residues} v={self._version}>")


def _write_manifest_file(path: str, manifest: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def sweep_build_leftovers(directory: str) -> List[str]:
    """Remove crashed-build artifacts (spool dirs, ``*.tmp``) from a
    store directory; returns what was removed.  Committed packs and the
    manifest are never touched — this is why "rebuild succeeds" after a
    crash: the new build starts from a directory containing only
    committed state."""
    removed: List[str] = []
    if not os.path.isdir(directory):
        return removed
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.startswith(BUILD_DIR_PREFIX) and os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
            removed.append(path)
        elif name.endswith(".tmp") and os.path.isfile(path):
            os.unlink(path)
            removed.append(path)
    return removed


# ----------------------------------------------------------------------
# Streaming builder
# ----------------------------------------------------------------------
class _Spool:
    """A streaming build's spool: encoded residues and description bytes
    append to two flat files in arrival order; only the per-record
    lengths stay in memory.  It has the ``__len__`` / ``lengths()``
    surface :func:`~repro.blast.seqdb.plan_fragments` bins by, and
    :meth:`fragments` reads the bins back one at a time."""

    def __init__(self, build_dir: str):
        self.seq_path = os.path.join(build_dir, "records.seq")
        self.hdr_path = os.path.join(build_dir, "records.hdr")
        self._seq_f = open(self.seq_path, "wb")
        self._hdr_f = open(self.hdr_path, "wb")
        self._lengths: List[int] = []
        self._hdr_lens: List[int] = []

    def __len__(self) -> int:
        return len(self._lengths)

    def lengths(self) -> List[int]:
        return self._lengths

    def add(self, description: str, encoded: np.ndarray) -> None:
        self._seq_f.write(memoryview(np.ascontiguousarray(encoded)))
        blob = description.encode()
        self._hdr_f.write(blob)
        self._lengths.append(len(encoded))
        self._hdr_lens.append(len(blob))

    def close_writes(self) -> None:
        self._seq_f.close()
        self._hdr_f.close()

    def fragments(self, n_fragments: int, seqtype: str, name: str
                  ) -> Iterator[Tuple[List[int], SequenceDB]]:
        """Close the spool and yield each bin of
        :func:`~repro.blast.seqdb.plan_fragments` with its records as a
        database of its own, read back record by record, so memory holds
        one fragment, never the spool."""
        self.close_writes()
        seq_at = list(itertools.accumulate(self._lengths, initial=0))
        hdr_at = list(itertools.accumulate(self._hdr_lens, initial=0))
        for fragment_id, ids in enumerate(plan_fragments(self, n_fragments)):
            sub = SequenceDB(seqtype, f"{name}.{fragment_id:03d}",
                             fragment_id=fragment_id)
            for hdr, seq in zip(_read_records(self.hdr_path, hdr_at, ids),
                                _read_records(self.seq_path, seq_at, ids)):
                sub.add(hdr.decode(), np.frombuffer(seq, dtype=np.uint8))
            yield ids, sub


def _read_records(path: str, at: List[int], ids: List[int]) -> List[bytes]:
    """Bytes ``at[i]:at[i + 1]`` of *path* for each id in *ids*, one
    positioned read each: only the bin's bytes are ever in memory."""
    with open(path, "rb") as f:
        fd = f.fileno()
        return [os.pread(fd, at[i + 1] - at[i], at[i]) for i in ids]


class PackStoreBuilder:
    """Streaming pack-store builder (bounded memory, atomic commit).

    Records are spilled to one spool as they arrive; :meth:`finalize`
    bins them with :func:`~repro.blast.seqdb.plan_fragments` — the
    fragments the pool would cut from the same database — packs one
    fragment at a time and commits the manifest last.  Use as a context
    manager — an exception aborts the build and removes the spool
    directory, leaving the destination exactly as found.
    """

    def __init__(self, directory: str, *, seqtype: str = NT,
                 name: str = "db", n_fragments: int = 4,
                 word_size: Optional[int] = None):
        if seqtype not in (NT, AA):
            raise ValueError(f"seqtype must be 'nt' or 'aa', got {seqtype!r}")
        if n_fragments < 1:
            raise ValueError("n_fragments must be >= 1")
        self.directory = directory
        self.seqtype = seqtype
        self.name = name
        self.word_size = int(word_size if word_size is not None
                             else (3 if seqtype == AA else 11))
        self.base = len(PROTEIN) if seqtype == AA else len(DNA)
        self._encode = encode_dna if seqtype == NT else encode_protein
        os.makedirs(directory, exist_ok=True)
        sweep_build_leftovers(directory)
        _BUILD_ROOTS.add(os.path.abspath(directory))
        self._build_dir = os.path.join(
            directory, BUILD_DIR_PREFIX + secrets.token_hex(4))
        os.makedirs(self._build_dir)
        self._spool = _Spool(self._build_dir)
        self.n_fragments = n_fragments
        self._residues = 0
        self._done = False

    def add(self, description: str, sequence) -> int:
        """Add one record; returns its global ordinal id."""
        if self._done:
            raise RuntimeError("builder already finalized/aborted")
        enc = (self._encode(sequence) if isinstance(sequence, str)
               else np.asarray(sequence, dtype=np.uint8))
        if len(enc) == 0:
            raise ValueError(f"empty sequence for {description!r}")
        gid = len(self._spool)
        self._spool.add(description, enc)
        self._residues += len(enc)
        return gid

    def add_records(self, records: Iterable[FastaRecord]) -> int:
        n0 = len(self._spool)
        for rec in records:
            self.add(rec.description, rec.sequence)
        return len(self._spool) - n0

    def finalize(self) -> PackStore:
        """Pack every fragment and commit the manifest."""
        if self._done:
            raise RuntimeError("builder already finalized/aborted")
        store_id = secrets.token_hex(8)
        entries: List[dict] = []
        for ids, sub in self._spool.fragments(self.n_fragments,
                                              self.seqtype, self.name):
            structs = build_scan_structures(sub, self.word_size, self.base)
            fname = f"{sub.name}{PACK_SUFFIX}"
            write_pack(os.path.join(self.directory, fname), structs,
                       [sub.description(i) for i in range(len(sub))],
                       seqtype=self.seqtype, store_id=store_id, version=0,
                       fragment_id=sub.fragment_id, source_ids=ids)
            entries.append({"file": fname, "fragment_id": sub.fragment_id,
                            "version": 0, "n_sequences": len(sub),
                            "total_residues": sub.total_residues})
            del sub, structs
        _maybe_crash_before_manifest()
        manifest = {
            "format_version": FORMAT_VERSION,
            "store_id": store_id,
            "name": self.name,
            "seqtype": self.seqtype,
            "k": self.word_size,
            "base": self.base,
            "db_version": 0,
            "n_sequences": len(self._spool),
            "total_residues": self._residues,
            "packs": entries,
        }
        _write_manifest_file(
            os.path.join(self.directory, MANIFEST_NAME), manifest)
        shutil.rmtree(self._build_dir, ignore_errors=True)
        self._done = True
        return PackStore(self.directory, manifest)

    def abort(self) -> None:
        """Drop the spool directory; committed files are untouched."""
        if self._done:
            return
        self._spool.close_writes()
        shutil.rmtree(self._build_dir, ignore_errors=True)
        self._done = True

    def __enter__(self) -> "PackStoreBuilder":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()


def build_pack_store(source, directory: str, *, seqtype: str = NT,
                     name: str = "db", n_fragments: int = 4,
                     word_size: Optional[int] = None) -> PackStore:
    """Build a pack store from *source* and commit it.

    *source* is a FASTA path, an open text handle, an iterable of
    :class:`~repro.blast.fasta.FastaRecord`, or anything with the
    ``SequenceDB`` read surface (``__len__``/``sequence``/
    ``description``).  File and handle sources stream — memory stays
    bounded by the largest fragment, not the corpus.
    """
    builder = PackStoreBuilder(directory, seqtype=seqtype, name=name,
                               n_fragments=n_fragments,
                               word_size=word_size)
    with builder:
        if hasattr(source, "sequence") and hasattr(source, "description"):
            for i in range(len(source)):
                builder.add(source.description(i), source.sequence(i))
        elif isinstance(source, (str, os.PathLike)):
            with open(source) as f:
                builder.add_records(iter_fasta(f))
        elif hasattr(source, "read"):
            builder.add_records(iter_fasta(source))
        else:
            builder.add_records(source)
        return builder.finalize()


# ----------------------------------------------------------------------
# Serial search straight off the mapping
# ----------------------------------------------------------------------
def search_store_batch(queries: Sequence[np.ndarray], store: PackStore,
                       scheme, params: Optional[SearchParams] = None, *,
                       query_ids: Optional[Sequence[str]] = None,
                       both_strands: bool = True
                       ) -> List[SearchResults]:
    """Serial search of N queries against a mmapped store, each result
    byte-identical to ``search(query, db, ...)`` over the equivalent
    in-RAM database.

    Exactly the pool's statistics discipline, minus the pool: one
    whole-store Karlin–Altschul resolution and a whole-store effective
    search space per query shared by every fragment.  The queries are
    prepared once (:func:`~repro.blast.search.prepare_queries`: word
    indexes, query batch, concatenation), each fragment is searched
    with them over a zero-copy :class:`~repro.exec.shm.PackDB` view,
    then the same source-id-globalizing merge runs per query.  The
    store is opened (and CRC-verified) once, however many queries there
    are.
    """
    queries = [np.asarray(q, dtype=np.uint8) for q in queries]
    if query_ids is None:
        query_ids = ["query"] * len(queries)
    by_pack: List[Dict[str, SearchResults]] = [{} for _ in queries]
    ids_by_name: Dict[str, List[int]] = {}
    with profiled("search_store_batch", n_queries=len(queries)):
        prepared = prepare_queries(
            queries, scheme, params, is_protein=store.seqtype == AA,
            db_size=(store.total_residues, len(store)),
            query_ids=query_ids, both_strands=both_strands)
        packs = store.open_packs()
        try:
            for pack in packs:
                db = PackDB(pack)
                found = prepared.search(db)
                for per_query, res in zip(by_pack, found):
                    per_query[db.name] = res
                ids_by_name[db.name] = list(pack.spec.source_ids)
                del db, found
        finally:
            for pack in packs:
                pack.close()
    return [merge_fragment_results(
                by_pack[qi], ids_by_name, query_id=query_ids[qi],
                query_len=len(q), db_residues=store.total_residues,
                db_sequences=len(store))
            for qi, q in enumerate(queries)]


def search_store(query: np.ndarray, store: PackStore, scheme,
                 params: Optional[SearchParams] = None, *,
                 query_id: str = "query", both_strands: bool = True
                 ) -> SearchResults:
    """One query against a mmapped store: a :func:`search_store_batch`
    of one."""
    return search_store_batch(
        [query], store, scheme, params, query_ids=[query_id],
        both_strands=both_strands)[0]
