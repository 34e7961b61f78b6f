"""Columnar serialization of fragment search results.

No runtime path calls this module — a result travels as one pickle
(DESIGN.md §5g); it stays for ``perf/harness/layers.py``, which times
it, until ROADMAP 2(a).  What follows is the design it was built for.

The pool's original protocol pickled every ``SearchResults`` over the
worker pipe — per-object pickle overhead that mpiBLAST's profile
(PAPERS.md) identifies as the parallel-BLAST bottleneck: result
movement.  This module flattens a task's ``(pack_name, query_index,
SearchResults)`` triples into a handful of fixed-dtype numpy arrays
plus two byte blobs, so a large result set ships through the worker's
shared-memory :class:`~repro.exec.shm.ResultArena` as one CRC-checked
copy instead of thousands of pickled objects.  Version 2 of the format
added the per-result query index — a batched task returns results for
several queries per pack, and the master demultiplexes them by the
``qi`` column.

The round trip is exact: float fields (``bit_score``, ``evalue``)
travel as raw float64 bytes, so a decoded result compares equal to the
original down to the last ULP — the pool's byte-identity invariant
holds through the arena exactly as it does through pickle.
"""

from __future__ import annotations

import json
from typing import List, Sequence, Tuple

import numpy as np

from repro.blast.search import HSP, Hit, SearchResults

#: Format magic + version; a mismatched blob fails loudly.
_MAGIC = b"RRES2\n"

#: Per-hit int64 columns.
_HIT_COLS = 5      # subject_id, subject_len, n_hsps, desc_len, fragment_id
#: Per-HSP int64 columns.
_HSP_ICOLS = 9     # q_start q_end s_start s_end score identities align_len
#                    strand ops_len
#: Per-HSP float64 columns.
_HSP_FCOLS = 2     # bit_score, evalue


def estimate_payload_size(
        pairs: Sequence[Tuple[str, int, SearchResults]]) -> int:
    """Cheap upper-bound estimate of the encoded size, used to decide
    inline-pickle vs arena shipping without encoding twice."""
    est = 256
    for name, _qi, res in pairs:
        est += 176 + len(name) + len(res.query_id)
        for hit in res.hits:
            est += _HIT_COLS * 8 + len(hit.description)
            for hsp in hit.hsps:
                est += (_HSP_ICOLS + _HSP_FCOLS) * 8 + len(hsp.ops)
    return est


def encode_result_pairs(
        pairs: Sequence[Tuple[str, int, SearchResults]]) -> bytes:
    """Flatten ``(pack_name, query_index, SearchResults)`` triples into
    one blob."""
    meta: List[dict] = []
    hit_rows: List[Tuple[int, int, int, int, int]] = []
    hsp_irows: List[Tuple[int, ...]] = []
    hsp_frows: List[Tuple[float, float]] = []
    desc_parts: List[bytes] = []
    ops_parts: List[bytes] = []
    for name, qi, res in pairs:
        meta.append({
            "name": name,
            "qi": int(qi),
            "query_id": res.query_id,
            "query_len": int(res.query_len),
            "db_residues": int(res.db_residues),
            "db_sequences": int(res.db_sequences),
            "n_hits": len(res.hits),
        })
        for hit in res.hits:
            desc = hit.description.encode()
            desc_parts.append(desc)
            frag = -1 if hit.fragment_id is None else int(hit.fragment_id)
            hit_rows.append((int(hit.subject_id), int(hit.subject_len),
                             len(hit.hsps), len(desc), frag))
            for h in hit.hsps:
                ops = h.ops.encode()
                ops_parts.append(ops)
                hsp_irows.append((int(h.q_start), int(h.q_end),
                                  int(h.s_start), int(h.s_end),
                                  int(h.score), int(h.identities),
                                  int(h.align_len), int(h.strand), len(ops)))
                hsp_frows.append((float(h.bit_score), float(h.evalue)))
    hit_arr = np.asarray(hit_rows, dtype=np.int64).reshape(-1, _HIT_COLS)
    hsp_iarr = np.asarray(hsp_irows, dtype=np.int64).reshape(-1, _HSP_ICOLS)
    hsp_farr = np.asarray(hsp_frows, dtype=np.float64).reshape(-1, _HSP_FCOLS)
    desc_blob = b"".join(desc_parts)
    ops_blob = b"".join(ops_parts)
    header = json.dumps({
        "results": meta,
        "n_hits": hit_arr.shape[0],
        "n_hsps": hsp_iarr.shape[0],
        "desc_bytes": len(desc_blob),
        "ops_bytes": len(ops_blob),
    }).encode()
    return b"".join([
        _MAGIC, len(header).to_bytes(8, "little"), header,
        hit_arr.tobytes(), hsp_iarr.tobytes(), hsp_farr.tobytes(),
        desc_blob, ops_blob,
    ])


def decode_result_pairs(blob: bytes
                        ) -> List[Tuple[str, int, SearchResults]]:
    """Inverse of :func:`encode_result_pairs`; exact round trip."""
    if blob[:len(_MAGIC)] != _MAGIC:
        raise ValueError("not an encoded result blob (bad magic)")
    pos = len(_MAGIC)
    if len(blob) < pos + 8:
        raise ValueError("truncated result blob (header length cut short)")
    hlen = int.from_bytes(blob[pos:pos + 8], "little")
    pos += 8
    if len(blob) < pos + hlen:
        raise ValueError("truncated result blob (header cut short)")
    header = json.loads(blob[pos:pos + hlen])
    pos += hlen
    n_hits, n_hsps = header["n_hits"], header["n_hsps"]
    expect = (pos + (n_hits * _HIT_COLS + n_hsps * _HSP_ICOLS) * 8
              + n_hsps * _HSP_FCOLS * 8
              + header["desc_bytes"] + header["ops_bytes"])
    if len(blob) < expect:
        # Explicit guard: byte-blob slices further down would silently
        # shorten, decoding truncated descriptions as valid results.
        raise ValueError(f"truncated result blob ({len(blob)} bytes, "
                         f"header describes {expect})")
    hit_arr = np.frombuffer(blob, dtype=np.int64, count=n_hits * _HIT_COLS,
                            offset=pos).reshape(-1, _HIT_COLS)
    pos += hit_arr.nbytes
    hsp_iarr = np.frombuffer(blob, dtype=np.int64,
                             count=n_hsps * _HSP_ICOLS,
                             offset=pos).reshape(-1, _HSP_ICOLS)
    pos += hsp_iarr.nbytes
    hsp_farr = np.frombuffer(blob, dtype=np.float64,
                             count=n_hsps * _HSP_FCOLS,
                             offset=pos).reshape(-1, _HSP_FCOLS)
    pos += hsp_farr.nbytes
    desc_blob = blob[pos:pos + header["desc_bytes"]]
    pos += header["desc_bytes"]
    ops_blob = blob[pos:pos + header["ops_bytes"]]

    pairs: List[Tuple[str, int, SearchResults]] = []
    hi = pi = dpos = opos = 0
    for m in header["results"]:
        res = SearchResults(query_id=m["query_id"],
                            query_len=m["query_len"],
                            db_residues=m["db_residues"],
                            db_sequences=m["db_sequences"])
        for _ in range(m["n_hits"]):
            sid, slen, n, dlen, frag = (int(x) for x in hit_arr[hi])
            hi += 1
            hit = Hit(subject_id=sid,
                      description=desc_blob[dpos:dpos + dlen].decode(),
                      subject_len=slen,
                      fragment_id=None if frag < 0 else frag)
            dpos += dlen
            for _ in range(n):
                (q0, q1, s0, s1, score, ident,
                 alen, strand, olen) = (int(x) for x in hsp_iarr[pi])
                bit, ev = (float(x) for x in hsp_farr[pi])
                pi += 1
                hit.hsps.append(HSP(
                    q_start=q0, q_end=q1, s_start=s0, s_end=s1,
                    score=score, bit_score=bit, evalue=ev,
                    identities=ident, align_len=alen, strand=strand,
                    ops=ops_blob[opos:opos + olen].decode()))
                opos += olen
            res.hits.append(hit)
        pairs.append((m["name"], int(m["qi"]), res))
    return pairs
