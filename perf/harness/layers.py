"""Per-layer measurements of the traced run.

Everything here is measured from outside, by timing calls into each
module's public functions on the same corpora the workloads use.  The
table in ``perf/README.md`` says which end-to-end metric each number
should move, and on which workload.  Counts (``*.seeds``,
``*.word_hits``, byte sizes, pool counters) are exact and must repeat
exactly for one seed; byte figures are *computed* from array and file
sizes, not measured device traffic.
"""

from __future__ import annotations

import os
import shutil
import socket
import statistics
import threading
import time
import warnings
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.blast.alphabet import reverse_complement
from repro.blast.gapped import banded_local_align, bulk_banded_score
from repro.blast.kmer import WordIndex
from repro.blast.profile import profiled
from repro.blast.render import render_results
from repro.blast.scankernel import (QueryBatch, ScanCache,
                                    build_scan_structures,
                                    default_scan_cache, scan_fragment,
                                    scan_fragment_batch)
from repro.blast.search import (merge_fragment_results, resolve_ka, search,
                                search_batch)
from repro.exec import (DEFAULT_SCAN_RATE, DEFAULT_TASK_OVERHEAD_S,
                        AttachedPack, ExecPool, FrameConnection,
                        FrameDecoder, JobSpec, NodeFleet, PackDB, PackStore,
                        ResultArena, ShmRegistry, build_pack_store,
                        decode_result_pairs, encode_result_pairs,
                        estimate_payload_size, execute_task, pack_fragment,
                        plan_fragments, plan_task_ranges, search_store)
from repro.exec.net import DATA, encode_frame

from harness import inputs
from harness.checker import Checker
from harness.inputs import Corpus
from harness.tracing import Tracer
from harness.workloads import JOBS, STORE_FRAGMENTS, write_corpus_fasta

MB = 1e6
_STAGES = ("index", "scan", "seed", "extend", "gapped_bulk", "gapped")
_COUNTERS = ("seeds", "gapped_trials", "gapped_traceback", "gapped_culled")


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _median_ms(fn: Callable[[int], object], reps: int) -> float:
    """Median wall time (ms) of ``fn(0) .. fn(reps-1)``."""
    return statistics.median(_timed(lambda: fn(i))[0]
                             for i in range(reps)) * 1e3


def _few(reps: int) -> int:
    """Repetitions for the expensive measurements (a build, a protein
    search): a third of *reps*, at least two."""
    return max(2, reps // 3)


# ----------------------------------------------------------------------
# blast.*
# ----------------------------------------------------------------------
def _kmer_scankernel(c: Corpus, reps: int) -> Dict[str, float]:
    k = c.params.word_size
    db = c.db

    def indexes(i):
        q = c.encoded[i % len(c.encoded)]
        return [WordIndex.for_dna(q, k),
                WordIndex.for_dna(reverse_complement(q), k)]

    out = {"kmer.index_build_ms": _median_ms(indexes, reps)}
    build_ms = _median_ms(lambda i: build_scan_structures(db, k, 4),
                          _few(reps))
    structs = build_scan_structures(db, k, 4)
    per_query = [indexes(i) for i in range(8)]
    out["scankernel.build_ms"] = build_ms
    out["scankernel.build_mres_per_s"] = db.total_residues / build_ms / 1e3
    scan1 = _median_ms(
        lambda i: [scan_fragment(ix, structs) for ix in per_query[i % 8]],
        reps)
    out["scankernel.scan1_ms"] = scan1
    out["scankernel.scan_mres_per_s"] = db.total_residues / scan1 / 1e3
    batch = QueryBatch([ix for pair in per_query for ix in pair])
    out["scankernel.scan8_ms"] = _median_ms(
        lambda i: scan_fragment_batch(batch, structs), _few(reps))
    out["scankernel.word_hits"] = sum(
        len(spos) for ix in per_query[0]
        for _sid, spos, _qpos in scan_fragment(ix, structs))
    # What one scan touches: every word code once, plus the position
    # and start tables the hits are mapped through.
    out["scankernel.bytes_computed"] = (structs.codes.nbytes
                                        + structs.code_pos.nbytes
                                        + structs.starts.nbytes)
    return out


def _search_stages(c: Corpus, reps: int) -> Dict[str, float]:
    """``search()`` under the public ``profiled`` hook: stage buckets
    are medians over *reps* queries, counters are query 0's (exact)."""
    sfx = "." + c.kind
    rows: List[Dict[str, float]] = []
    counters: Dict[str, int] = {}
    search(c.encoded[0], c.db, c.scheme, c.params)     # warm structures
    for i in range(reps):
        q = c.encoded[i % len(c.encoded)]
        with profiled("perf", enabled=True, emit=False) as prof:
            dt, _ = _timed(lambda: search(q, c.db, c.scheme, c.params))
        row = {s: prof.stages.get(s, 0.0) * 1e3 for s in _STAGES}
        row["total"] = dt * 1e3
        row["unattributed"] = row["total"] - sum(row[s] for s in _STAGES)
        rows.append(row)
        if i == 0:
            counters = dict(prof.counters)
    out = {f"search.{key}_ms{sfx}": statistics.median(r[key] for r in rows)
           for key in ("total", "unattributed") + _STAGES}
    for name in _COUNTERS:
        out[f"search.{name}{sfx}"] = counters.get(name, 0)
    trials = counters.get("gapped_trials", 0)
    out[f"search.traceback_ratio{sfx}"] = (
        counters.get("gapped_traceback", 0) / trials if trials else 0.0)
    return out


def _gapped(c: Corpus, reps: int) -> Dict[str, float]:
    """The gapped kernels on a fixed pair set: every HSP the first
    protein query reports, as (query, subject, diagonal)."""
    query = c.encoded[0]
    res = search_batch([query], c.db, c.scheme, c.params)[0]
    pairs = [(c.db.sequence(hit.subject_id), h.s_start - h.q_start)
             for hit in res.hits for h in hit.hsps]
    subjects = [s for s, _ in pairs]
    s_len = np.array([len(s) for s in subjects], dtype=np.int64)
    s_off = np.concatenate([[0], np.cumsum(s_len)[:-1]])
    scat = np.concatenate(subjects)
    n = len(pairs)
    q_off = np.zeros(n, dtype=np.int64)
    q_len = np.full(n, len(query), dtype=np.int64)
    diag = np.array([d for _, d in pairs], dtype=np.int64)
    band = c.params.band
    bulk_ms = _median_ms(
        lambda i: bulk_banded_score(query, scat, q_off, q_len, s_off, s_len,
                                    diag, c.scheme, band), reps)
    trace_ms = _median_ms(
        lambda i: [banded_local_align(query, s, d, c.scheme, band)
                   for s, d in pairs], _few(reps))
    cells = n * len(query) * (2 * band + 1)
    return {"gapped.bulk_score_ms": bulk_ms,
            "gapped.bulk_mcells_per_s": cells / bulk_ms / 1e3,
            "gapped.traceback_ms_per_pair": trace_ms / n}


def _render(c: Corpus, reps: int) -> Dict[str, float]:
    res = search(c.encoded[0], c.db, c.scheme, c.params)
    return {"render.tabular_ms": _median_ms(lambda i: res.tabular(), reps),
            "render.alignments_ms": _median_ms(
                lambda i: render_results(c.queries[0], c.db, res), reps)}


# ----------------------------------------------------------------------
# The shadow pipeline: one pool op replayed in-process, step by step
# ----------------------------------------------------------------------
class Shadow:
    """plan -> pack_fragment -> per range execute_task on PackDB ->
    encode -> arena write/read -> decode -> merge -> tabular, with the
    public pieces the pool itself is made of.  Worker-side steps of
    different ranges overlap in the real pool, so the critical path is
    the busiest worker's share plus the master's serial tail."""

    def __init__(self, c: Corpus, tr: Tracer):
        self.c, self.tr = c, tr
        k = c.params.word_size
        self.registry = ShmRegistry()
        self.publish_s = self.attach_s = 0.0
        self.specs, self.attached = [], []
        self.packs, self.ids_by_name = {}, {}
        self.cache = ScanCache()
        try:
            for frag, ids in enumerate(plan_fragments(c.db, 2 * JOBS)):
                sub = c.db.subset(ids, name=f"shadow.{frag:03d}",
                                  fragment_id=frag)
                dt, spec = _timed(lambda: pack_fragment(
                    sub, k, 4, cache_token=("shadow", 0, frag),
                    registry=self.registry))
                self.publish_s += dt
                self.specs.append(spec)
            for spec in self.specs:
                dt, pack = _timed(lambda: AttachedPack(spec, verify=True))
                self.attach_s += dt
                self.attached.append(pack)
                pdb = PackDB(pack)
                self.cache.put(pdb, k, 4, pack.structs)
                self.packs[spec.name] = (pack, pdb)
                self.ids_by_name[spec.name] = list(spec.source_ids)
            self.arena = ResultArena.create(4 << 20, tag="shadow",
                                            registry=self.registry)
        except BaseException:
            self.close()
            raise
        self.weights = [float(s.total_residues) for s in self.specs]
        self.ka = resolve_ka(c.scheme, c.params, False)

    def close(self) -> None:
        self.cache.clear()
        self.packs.clear()
        for pack in self.attached:
            pack.close()
        if getattr(self, "arena", None) is not None:
            self.arena.close()
        self.registry.release_all()

    def plan(self, n_queries: int) -> List[Tuple[int, ...]]:
        return plan_task_ranges(self.weights, n_queries=1, jobs=JOBS,
                                overhead_s=DEFAULT_TASK_OVERHEAD_S,
                                scan_rate=DEFAULT_SCAN_RATE,
                                queries_per_task=n_queries)

    def op(self, op_id: int, qis: Sequence[int]) -> Dict[str, object]:
        """Replay one op for queries *qis*; returns step times (s), the
        payload sizes and the rendered texts."""
        c, tr = self.c, self.tr
        t: Dict[str, float] = {k: 0.0 for k in (
            "plan", "execute", "encode", "arena_write", "arena_read",
            "decode", "merge", "tabular")}
        jobs = {qi: JobSpec(query=c.encoded[qi], query_id="query",
                            scheme=c.scheme, params=c.params,
                            both_strands=True, ka=self.ka,
                            effective_space=(len(c.encoded[qi]),
                                             c.db.total_residues))
                for qi in qis}
        worker: List[Tuple[float, float]] = []     # (weight, seconds)
        blobs, estimates, decoded = [], [], []
        with tr.op("shadow.pool", op_id):
            with tr.span("exec.schedule:plan_task_ranges") as s:
                ranges = self.plan(len(qis))
            t["plan"] = s["t1"] - s["t0"]
            for rng in ranges:
                names = tuple(self.specs[i].name for i in rng)
                with tr.span("exec.nodes:execute_task") as s1:
                    pairs, _el, _ids = execute_task(
                        self.packs, jobs, tuple(qis), names, self.cache)
                estimates.append(estimate_payload_size(pairs))
                with tr.span("exec.results:encode") as s2:
                    blob = encode_result_pairs(pairs)
                    s2["bytes_out"] = len(blob)
                with tr.span("exec.shm:arena_write") as s3:
                    desc = self.arena.write(blob)
                with tr.span("exec.shm:arena_read") as s4:
                    back = self.arena.read(*desc)
                with tr.span("exec.results:decode",
                             bytes_in=len(back)) as s5:
                    decoded.extend(decode_result_pairs(back))
                blobs.append(blob)
                steps = [x["t1"] - x["t0"] for x in (s1, s2, s3, s4, s5)]
                for key, dt in zip(("execute", "encode", "arena_write",
                                    "arena_read", "decode"), steps):
                    t[key] += dt
                worker.append((sum(self.weights[i] for i in rng),
                               sum(steps[:3])))
            texts = []
            for qi in qis:
                by_pack = {name: res for name, q, res in decoded if q == qi}
                with tr.span("blast.search:merge_fragment_results") as s6:
                    merged = merge_fragment_results(
                        by_pack, self.ids_by_name, query_id="query",
                        query_len=len(c.encoded[qi]),
                        db_residues=c.db.total_residues,
                        db_sequences=len(c.db))
                with tr.span("blast.render:tabular") as s7:
                    texts.append(merged.tabular())
                t["merge"] += s6["t1"] - s6["t0"]
                t["tabular"] += s7["t1"] - s7["t0"]
        # Heaviest range first onto the least-loaded of JOBS workers —
        # the pool's own issue order.
        busy = [0.0] * JOBS
        for _w, dt in sorted(worker, reverse=True):
            busy[busy.index(min(busy))] += dt
        t["critical"] = (t["plan"] + max(busy) + t["arena_read"]
                         + t["decode"] + t["merge"] + t["tabular"])
        return {"t": t, "texts": texts, "blobs": blobs,
                "estimates": estimates, "n_tasks": len(ranges),
                "imbalance": (max(w for w, _ in worker)
                              / statistics.mean(w for w, _ in worker))}


def _shadow_metrics(c: Corpus, tr: Tracer, reps: int,
                    references: List[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    sh = Shadow(c, tr)
    try:
        pack_bytes = sum(s.size for s in sh.specs)
        out["shm.publish_ms"] = sh.publish_s * 1e3
        out["shm.publish_mb_per_s"] = pack_bytes / MB / sh.publish_s
        out["shm.pack_bytes"] = pack_bytes
        out["shm.attach_verify_ms"] = sh.attach_s * 1e3

        out["schedule.plan_ms"] = _median_ms(
            lambda i: (plan_fragments(c.db, 2 * JOBS), sh.plan(1),
                       sh.plan(8)), reps)

        ops1 = [sh.op(i, [i % len(c.encoded)]) for i in range(reps)]
        for i, o in enumerate(ops1):
            if o["texts"][0] != references[i % len(c.encoded)]:
                raise RuntimeError("shadow pipeline rendered different "
                                   "bytes than the serial reference")
        ops8 = [sh.op(reps + i, list(range(8))) for i in range(_few(reps))]

        def med(ops, key):
            return statistics.median(o["t"][key] for o in ops) * 1e3

        out["schedule.tasks"] = ops1[0]["n_tasks"]
        out["schedule.imbalance"] = ops1[0]["imbalance"]
        out["pool.shadow_critical_path_ms"] = med(ops1, "critical")
        out["nodes.execute_task_ms"] = med(ops1, "execute")
        out["search.merge_ms"] = med(ops1, "merge")
        for sfx, ops in ((".q1", ops1), (".q8", ops8)):
            actual = sum(len(b) for b in ops[0]["blobs"])
            out["results.encode_ms" + sfx] = med(ops, "encode")
            out["results.decode_ms" + sfx] = med(ops, "decode")
            out["results.payload_bytes" + sfx] = actual
            out["results.estimate_over_actual" + sfx] = (
                sum(ops[0]["estimates"]) / actual)
        blob = max(ops8[0]["blobs"], key=len)
        out["shm.arena_roundtrip_us"] = _median_ms(
            lambda i: sh.arena.read(*sh.arena.write(blob)), reps) * 1e3
    finally:
        sh.close()
    return out


# ----------------------------------------------------------------------
# The four real paths at one corpus size
# ----------------------------------------------------------------------
def _warm_p50_ms(op: Callable[[int], str], c: Corpus, reps: int,
                 references: List[str]) -> float:
    """Median of *reps* warm query -> text ops, each checked."""
    times = []
    for i in range(reps):
        qi = i % len(c.encoded)
        dt, text = _timed(lambda: op(qi))
        if text != references[qi]:
            raise RuntimeError("a layer measurement rendered different "
                               "bytes than the serial reference")
        times.append(dt)
    return statistics.median(times) * 1e3


def _add_stats(total: Dict[str, int], stats) -> None:
    for name in ("tasks_done", "arena_results", "inline_results",
                 "remote_results", "requeues", "hedges", "respawns",
                 "reconnects", "heartbeat_losses"):
        total[name] = total.get(name, 0) + getattr(stats, name)
    total["fallbacks"] = total.get("fallbacks", 0) + bool(stats.fallback)


def measure_paths(c: Corpus, refs: List[str], reps: int, workdir: str,
                  detail: bool = False) -> Dict[str, float]:
    """Warm query -> text latency of every path on corpus *c*
    (``path.*``), each op checked against *refs*, plus — with *detail* —
    each path's set-up, teardown and counters."""
    out: Dict[str, float] = {}
    enc, db, scheme, params = c.encoded, c.db, c.scheme, c.params

    search(enc[0], db, scheme, params)                 # warm structures
    out["path.search"] = _warm_p50_ms(
        lambda qi: search(enc[qi], db, scheme, params).tabular(),
        c, reps, refs)
    out["path.batch1"] = _warm_p50_ms(
        lambda qi: search_batch([enc[qi]], db, scheme,
                                params)[0].tabular(), c, reps, refs)
    if detail:
        out["search.batch8_ms"] = _median_ms(
            lambda i: search_batch(enc[:8], db, scheme, params), _few(reps))
    default_scan_cache().clear()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)

        # -- exec.pool ---------------------------------------------------
        counters: Dict[str, int] = {}
        t0 = time.perf_counter()
        pool = ExecPool(jobs=JOBS).start()
        try:
            out["pool.start_ms"] = (time.perf_counter() - t0) * 1e3
            first_s, _ = _timed(
                lambda: pool.search(enc[0], db, scheme, params).tabular())

            def pool_op(qi):
                text = pool.search(enc[qi], db, scheme, params).tabular()
                _add_stats(counters, pool.last_stats)
                return text

            out["path.pool2"] = _warm_p50_ms(pool_op, c, reps, refs)
            out["pool.prepare_ms"] = first_s * 1e3 - out["path.pool2"]
            out["pool.tasks_per_search"] = counters["tasks_done"] / reps
            if detail:
                for _ in range(_few(reps)):
                    pool.search_many(enc[:8], db, scheme, params)
                    _add_stats(counters, pool.last_stats)
                tiny = inputs.tiny_nt()
                out["pool.noop_roundtrip_ms"] = _warm_p50_ms(
                    lambda qi: pool.search(tiny.encoded[0], tiny.db, scheme,
                                           params).tabular(),
                    tiny, reps + 1, Checker(tiny).references)
        finally:
            t0 = time.perf_counter()
            pool.close()
            out["pool.close_ms"] = (time.perf_counter() - t0) * 1e3
        for name in ("arena_results", "inline_results", "remote_results",
                     "requeues", "hedges", "respawns", "fallbacks"):
            out["pool." + name] = counters[name]

        # -- exec.diskpack -------------------------------------------------
        fasta = write_corpus_fasta(c, workdir)
        store_dir = os.path.join(workdir, "layer-store")
        try:
            build_s, _ = _timed(lambda: build_pack_store(
                fasta, store_dir, seqtype="nt",
                n_fragments=STORE_FRAGMENTS, word_size=params.word_size))
            out["diskpack.build_s"] = build_s
            out["diskpack.build_mres_per_s"] = (db.total_residues / build_s
                                                / 1e6)
            out["diskpack.store_bytes"] = sum(
                os.path.getsize(os.path.join(store_dir, f))
                for f in os.listdir(store_dir))
            out["diskpack.open_ms"] = _median_ms(
                lambda i: PackStore.open(store_dir), reps)
            store = PackStore.open(store_dir)
            out["diskpack.verify_ms"] = _median_ms(
                lambda i: store.verify(), _few(reps))
            out["path.store"] = _warm_p50_ms(
                lambda qi: search_store(enc[qi], PackStore.open(store_dir),
                                        scheme, params).tabular(),
                c, reps, refs)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

        # -- exec.nodes ------------------------------------------------------
        counters = {}
        with NodeFleet(JOBS) as fleet:
            t0 = time.perf_counter()
            pool = ExecPool(jobs=0, nodes=fleet.addresses,
                            replication=2).start()
            try:
                out["nodes.connect_ms"] = (time.perf_counter() - t0) * 1e3
                first_s, _ = _timed(lambda: pool.search(
                    enc[0], db, scheme, params).tabular())
                _add_stats(counters, pool.last_stats)

                def nodes_op(qi):
                    text = pool.search(enc[qi], db, scheme,
                                       params).tabular()
                    _add_stats(counters, pool.last_stats)
                    return text

                out["path.nodes2"] = _warm_p50_ms(nodes_op, c, reps, refs)
                ship = pool.node_ship_stats()
            finally:
                pool.close()
            shipped = sum(s["bytes_shipped"] for s in ship)
            ship_s = max(first_s - out["path.nodes2"] / 1e3, 1e-9)
            out["nodes.ship_ms"] = ship_s * 1e3
            out["nodes.ship_mb_per_s"] = shipped / MB / ship_s
            out["nodes.bytes_shipped"] = shipped
            out["nodes.reconnects"] = counters["reconnects"]
            out["nodes.heartbeat_losses"] = counters["heartbeat_losses"]
            if detail:
                # A second, fresh master against the warm fleet adopts
                # every pack by identity: it must ship nothing.
                with ExecPool(jobs=0, nodes=fleet.addresses,
                              replication=2) as again:
                    text = again.search(enc[0], db, scheme, params).tabular()
                    if text != refs[0]:
                        raise RuntimeError("warm-fleet master rendered "
                                           "different bytes")
                    ship = again.node_ship_stats()
                out["nodes.reship_bytes"] = sum(s["bytes_shipped"]
                                                for s in ship)
                out["nodes.bytes_saved"] = sum(s["bytes_saved"]
                                               for s in ship)
    return out


# ----------------------------------------------------------------------
# exec.net
# ----------------------------------------------------------------------
def _net(reps: int, big: int = 8 << 20) -> Dict[str, float]:
    a_sock, b_sock = socket.socketpair()
    a, b = FrameConnection(a_sock, "a"), FrameConnection(b_sock, "b")

    def echo():
        # The peer end of the socket: acknowledge every message with
        # its length.  (A thread, because sendall of 8 MB blocks until
        # the other end reads.)
        try:
            while True:
                b.send(len(b.recv()))
        except (EOFError, OSError):
            pass

    peer = threading.Thread(target=echo, daemon=True)
    peer.start()
    try:
        small, large = b"x" * 64, b"x" * big

        def roundtrip(payload):
            a.send(payload)
            return a.recv()

        rt_ms = _median_ms(lambda i: roundtrip(small), 20 * reps)
        big_ms = _median_ms(lambda i: roundtrip(large), _few(reps))
    finally:
        a.close()
        peer.join(timeout=5.0)
        b.close()

    def codec(i):
        dec = FrameDecoder()
        dec.feed(encode_frame(DATA, 0, large))
        return list(dec.frames())

    return {"net.frame_roundtrip_us": rt_ms * 1e3,
            "net.frame_mb_per_s": big / MB / (big_ms / 1e3),
            "net.codec_mb_per_s": big / MB / (_median_ms(codec, _few(reps))
                                              / 1e3)}


# ----------------------------------------------------------------------
def _fit_line(xs: Sequence[float], ys: Sequence[float]
              ) -> Tuple[float, float]:
    """Least-squares ``y = intercept + slope * x``."""
    slope, intercept = np.polyfit(np.asarray(xs, dtype=float),
                                  np.asarray(ys, dtype=float), 1)
    return float(intercept), float(slope)


def measure_layers(seed: int, nt: Corpus, aa: Corpus, reps: int,
                   workdir: str, tr: Tracer) -> Dict[str, float]:
    """Every per-layer metric except ``driver.*``."""
    out: Dict[str, float] = {}
    out.update(_kmer_scankernel(nt, reps))
    out.update(_search_stages(nt, reps))
    out.update(_render(nt, reps))
    out.update(_search_stages(aa, _few(reps)))
    out.update(_gapped(aa, _few(reps)))
    default_scan_cache().clear()

    # The size sweep: 20 k, 1 M and 4 M residues (the full corpus, a
    # quarter and a two-hundredth of it; --smoke floors the small ones).
    # The fixed cost is the intercept, the marginal rate the slope.
    full = nt.db.total_residues
    sizes, points = [], []
    for residues in (max(full // 200, 10_000), max(full // 4, 15_000)):
        small = inputs.make_nt(seed, residues)
        sizes.append(small.db.total_residues / 1e6)
        points.append(measure_paths(small, Checker(small).references, reps,
                                    workdir))
    refs = Checker(nt).references
    at_full = measure_paths(nt, refs, reps, workdir, detail=True)
    sizes.append(full / 1e6)
    points.append(at_full)
    for path in ("search", "batch1", "pool2", "store", "nodes2"):
        icpt, slope = _fit_line(sizes, [p["path." + path] for p in points])
        out[f"sweep.{path}.intercept_ms"] = icpt
        out[f"sweep.{path}.slope_ms_per_mres"] = slope

    paths = {k: at_full.pop(k) for k in list(at_full)
             if k.startswith("path.")}
    out.update(at_full)
    out.update(_shadow_metrics(nt, tr, reps, refs))
    default_scan_cache().clear()

    batch1 = paths["path.batch1"]
    out["search.batch1_ms"] = batch1
    out["search.single_over_batch1"] = paths["path.search"] / batch1
    out["pool.search_ms"] = paths["path.pool2"]
    out["pool.unattributed_ms"] = (paths["path.pool2"]
                                   - out["pool.shadow_critical_path_ms"])
    out["pool.efficiency_vs_batch1"] = batch1 / (JOBS * paths["path.pool2"])
    out["diskpack.search_ms"] = paths["path.store"]
    out["diskpack.search_over_batch1"] = paths["path.store"] / batch1
    out["nodes.search_ms"] = paths["path.nodes2"]
    out.update(_net(reps))
    return out
