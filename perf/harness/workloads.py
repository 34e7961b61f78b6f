"""The six workloads: one op = query in -> rendered text out, through
one real search path, using public functions only.

Load shape (all workloads): closed loop, one client, one generator
process, no generator threads — an op is issued only after the
previous op's rendered text is back.  The box has two cores, so pools
use ``jobs=2`` and the fleet has two agents.

Every workload has the same small surface: ``setup()`` builds whatever
the path needs before its first search, ``op(i, tr)`` runs op *i* and
returns ``[(query index, text), ...]``, ``fallback()`` says whether the
pool answered through its serial fallback, ``child_pids()`` lists the
worker/agent processes, ``teardown()`` releases everything.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Tuple

from repro.blast import blastn, blastp
from repro.blast.fasta import FastaRecord, write_fasta
from repro.blast.scankernel import default_scan_cache
from repro.exec import (ExecPool, NodeFleet, PackStore, build_pack_store,
                        search_store)

from harness.inputs import Corpus

JOBS = 2
STORE_FRAGMENTS = 4

Answers = List[Tuple[int, str]]


def _tabular(tr, res) -> str:
    with tr.span("blast.render:tabular") as s:
        text = res.tabular()
        s["bytes_out"] = len(text)
    return text


class Workload:
    name = ""
    kind = "nt"
    queries_per_op = 1

    def __init__(self, corpus: Corpus, workdir: str):
        self.c = corpus
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def op(self, i: int, tr) -> Answers:
        raise NotImplementedError

    def fallback(self) -> bool:
        return False

    def child_pids(self) -> List[int]:
        return []

    def teardown(self) -> None:
        pass


class _Serial(Workload):
    """The default single-query entry the CLI uses.  Set-up is the
    scan-structure build the first search pays."""

    program = None

    def setup(self) -> None:
        default_scan_cache().clear()

    def op(self, i, tr) -> Answers:
        qi = i % len(self.c.queries)
        with tr.span("blast.search:" + self.program.__name__,
                     bytes_in=self.c.query_len):
            res = self.program(self.c.queries[qi], self.c.db)
        return [(qi, _tabular(tr, res))]

    def teardown(self) -> None:
        default_scan_cache().clear()


class NtSingleSerial(_Serial):
    name = "nt_single_serial"
    program = staticmethod(blastn)


class AaGappedSerial(_Serial):
    name = "aa_gapped_serial"
    kind = "aa"
    program = staticmethod(blastp)


class NtSinglePool2(Workload):
    """Set-up is pool start; the first search publishes and attaches
    the packs."""

    name = "nt_single_pool2"
    pool = None

    def _make_pool(self) -> ExecPool:
        return ExecPool(jobs=JOBS)

    def setup(self) -> None:
        self.pool = self._make_pool().start()

    def op(self, i, tr) -> Answers:
        qi = i % len(self.c.encoded)
        with tr.span("exec.pool:search", bytes_in=self.c.query_len):
            res = self.pool.search(self.c.encoded[qi], self.c.db,
                                   self.c.scheme, self.c.params)
        return [(qi, _tabular(tr, res))]

    def fallback(self) -> bool:
        stats = self.pool.last_stats
        return bool(stats is not None and stats.fallback)

    def child_pids(self) -> List[int]:
        return list(self.pool.worker_pids().values())

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


class NtBatch8Pool2(NtSinglePool2):
    """Eight queries per op: the scan is amortised over the batch and
    the result payload is eight times larger.  Op *i* takes queries
    i .. i+7 (mod 16): a window that slides by one gives 16 distinct
    batches of nearly equal cost, where two fixed halves would give a
    two-peaked latency distribution with no stable median."""

    name = "nt_batch8_pool2"
    queries_per_op = 8

    def op(self, i, tr) -> Answers:
        n = len(self.c.encoded)
        qis = [(i + k) % n for k in range(8)]
        with tr.span("exec.pool:search_many",
                     bytes_in=8 * self.c.query_len):
            results = self.pool.search_many(
                [self.c.encoded[qi] for qi in qis], self.c.db,
                self.c.scheme, self.c.params)
        with tr.span("blast.render:tabular") as s:
            out = [(qi, res.tabular()) for qi, res in zip(qis, results)]
            s["bytes_out"] = sum(len(t) for _, t in out)
        return out


class NtSingleNodes2(NtSinglePool2):
    """The socket transport on the same tasks as ``nt_single_pool2``;
    set-up carries fleet connect and the pack ship over loopback."""

    name = "nt_single_nodes2"
    fleet = None

    def _make_pool(self) -> ExecPool:
        self.fleet = NodeFleet(JOBS)
        return ExecPool(jobs=0, nodes=self.fleet.addresses, replication=2)

    def child_pids(self) -> List[int]:
        return [p.pid for p in self.fleet.procs if p is not None]

    def teardown(self) -> None:
        try:
            super().teardown()
        finally:
            if self.fleet is not None:
                self.fleet.stop()
                self.fleet = None


class NtStoreRestart(Workload):
    """The paper's subject — a database that lives on disk, searched
    fragment by fragment — and the restart path: every op reopens the
    store.  Set-up is ``build_pack_store`` from the corpus FASTA."""

    name = "nt_store_restart"
    store_dir = None

    def __init__(self, corpus, workdir):
        super().__init__(corpus, workdir)
        self.fasta = write_corpus_fasta(corpus, workdir)

    def setup(self) -> None:
        self.store_dir = os.path.join(self.workdir, "store")
        build_pack_store(self.fasta, self.store_dir, seqtype="nt",
                         n_fragments=STORE_FRAGMENTS,
                         word_size=self.c.params.word_size)

    def op(self, i, tr) -> Answers:
        qi = i % len(self.c.encoded)
        with tr.span("exec.diskpack:PackStore.open"):
            store = PackStore.open(self.store_dir)
        with tr.span("exec.diskpack:search_store",
                     bytes_in=self.c.query_len):
            res = search_store(self.c.encoded[qi], store, self.c.scheme,
                               self.c.params)
        del store
        return [(qi, _tabular(tr, res))]

    def teardown(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


def write_corpus_fasta(corpus: Corpus, workdir: str) -> str:
    """The corpus as a FASTA file — an input, written once, not timed."""
    path = os.path.join(workdir, f"corpus-{corpus.db.total_residues}.fasta")
    if not os.path.exists(path):
        db = corpus.db
        with open(path, "w") as f:
            f.write(write_fasta([FastaRecord(db.description(i),
                                             db.sequence_str(i))
                                 for i in range(len(db))]))
    return path


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (NtSingleSerial, AaGappedSerial, NtSinglePool2,
                        NtBatch8Pool2, NtStoreRestart, NtSingleNodes2)}
