"""Command-line interface.

Mirrors the tools of the paper's era plus the experiment layer::

    python -m repro.cli packdb    build -i seqs.fasta -o DIR [-p] [--fragments 8]
    python -m repro.cli blastall  -p blastn -d DIR -i query.fasta
    python -m repro.cli psiblast  -d DIR -i query.fasta -j 3
    python -m repro.cli experiment --variant ceft-pvfs --workers 8 \\
        --servers 8 --stress 1 --scale 0.1
    python -m repro.cli synthdb   -o DIR -n nt --residues 1000000

``blastall`` dispatches the five programs through one interface, like
NCBI's binary (paper Section 2.1).  ``packdb build`` is this engine's
``formatdb`` and mpiformatdb in one: it streams FASTA into a persistent
on-disk pack store (checksummed, mmap-able fragment packs —
:mod:`repro.exec.diskpack`), the one database format every ``-d``
opens.  blastn / blastp cold-start from it without rebuilding anything,
serially (zero-copy mmap) or with ``--jobs`` (one memcpy into shared
memory per fragment); the other programs read it into memory.

Exit codes (parallel ``--jobs`` runs):

* ``0`` — success.
* ``3`` (``EXIT_POOL_FAILURE``) — the worker pool failed the job and
  serial fallback was disabled (``--no-fallback``): no results.
* ``4`` (``EXIT_INTEGRITY``) — a shared-memory fragment pack failed
  CRC verification (:class:`repro.exec.PackIntegrityError`); never
  degraded silently, no results.
* ``5`` (``EXIT_DEGRADED``) — results were produced (byte-identical),
  but by the serial engine after the pool collapsed; scripts that
  care about *how* the answer was computed can detect the degraded
  path without parsing stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

#: Parallel run failed and fallback was disabled; no results produced.
EXIT_POOL_FAILURE = 3
#: A fragment pack failed CRC32 verification; no results produced.
EXIT_INTEGRITY = 4
#: Results produced, but via serial fallback after pool collapse.
EXIT_DEGRADED = 5
#: Hits a report lists per query (NCBI's -v / -b): ``blastall`` prints
#: 25, each ``psiblast`` round 15.
BLASTALL_MAX_HITS = 25
PSIBLAST_MAX_HITS = 15


def _open_store(directory: str):
    from repro.exec.diskpack import PackStore

    return PackStore.open(directory)


def _open_search_store(directory: str, seqtype: str, program: str):
    """The store ``-d`` names, opened, for a *program* that searches
    *seqtype*: ``(store, 0)``, or ``(None, exit code)`` after one line
    on stderr — a path that holds no store, a damaged or older store, a
    store of the other alphabet."""
    from repro.exec.diskpack import MANIFEST_NAME
    from repro.exec.shm import PackIntegrityError

    if not os.path.isfile(os.path.join(directory, MANIFEST_NAME)):
        print(f"# -d {directory}: not a pack store; build one with "
              f"`repro packdb build -i FASTA -o DIR`", file=sys.stderr)
        return None, 2
    try:
        store = _open_store(directory)
    except PackIntegrityError as exc:
        print(f"# pack integrity failure: {exc}", file=sys.stderr)
        return None, EXIT_INTEGRITY
    if store.seqtype != seqtype:
        print(f"# {program} needs a {seqtype} pack store; {directory} "
              f"holds {store.seqtype}", file=sys.stderr)
        return None, 2
    return store, 0


def _print_store(store) -> None:
    print(f"pack store {store.directory}: {store.seqtype}, "
          f"{len(store)} sequences, {store.total_residues} residues, "
          f"{len(store.packs)} pack(s), word size {store.k}, "
          f"db version {store._version}")
    for entry in store.packs:
        nbytes = os.path.getsize(store.pack_path(entry))
        print(f"  {entry.file}: fragment {entry.fragment_id} "
              f"v{entry.version}, {entry.n_sequences} seqs, "
              f"{entry.total_residues} residues, {nbytes} bytes")


def cmd_packdb_build(args) -> int:
    from repro.exec.diskpack import build_pack_store

    with open(args.input) as f:
        store = build_pack_store(
            f, args.output, seqtype="aa" if args.protein else "nt",
            name=args.name, n_fragments=args.fragments,
            word_size=args.word_size)
    _print_store(store)
    return 0


def cmd_packdb_info(args) -> int:
    from repro.exec import PackIntegrityError

    try:
        _print_store(_open_store(args.directory))
    except PackIntegrityError as exc:
        print(f"# pack integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    return 0


def cmd_packdb_verify(args) -> int:
    from repro.exec import PackIntegrityError

    try:
        store = _open_store(args.directory)
        n = store.verify()
    except PackIntegrityError as exc:
        print(f"# pack integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    print(f"verified {n} pack(s): every section CRC32 OK")
    return 0


def _parallel_results(program: str, store, queries, params, jobs: int,
                      args):
    """Run every query of a ``--jobs N`` invocation through one
    persistent pool (the store's packs attach once; queries stream
    through the shared work queue).  Results are byte-identical to the
    serial program dispatch.  Returns ``(results, degraded)`` —
    *degraded* is True when the pool collapsed and the batch was served
    by the serial fallback engine."""
    import warnings

    from repro.blast.alphabet import encode_dna, encode_protein
    from repro.blast.programs import program_defaults
    from repro.exec import ExecPool

    scheme, params = program_defaults(program, params)
    encode = encode_dna if program == "blastn" else encode_protein
    pool_kw = {}
    if args.task_timeout is not None:
        pool_kw["task_timeout"] = args.task_timeout
    if args.no_respawn:
        pool_kw["respawn"] = False
    if args.no_fallback:
        pool_kw["serial_fallback"] = False
    nodes = args.nodes
    if nodes:
        pool_kw["nodes"] = [a for grp in nodes for a in grp.split(",")
                            if a.strip()]
        if args.replication is not None:
            pool_kw["replication"] = args.replication
    with ExecPool(jobs=jobs, **pool_kw) as pool:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            results = pool.search_many(
                [encode(rec.sequence) for rec in queries], store, scheme,
                params,
                query_ids=[rec.id or "query" for rec in queries],
                both_strands=(program == "blastn"))
        for w in caught:
            print(f"# {w.message}", file=sys.stderr)
        if nodes:
            for s in pool.node_ship_stats():
                print(f"# node {s['address']}: {s['connects']} connect(s), "
                      f"{s['packs_shipped']} pack(s)/"
                      f"{s['bytes_shipped']} B shipped, "
                      f"{s['packs_adopted']} adopted/"
                      f"{s['bytes_saved']} B saved", file=sys.stderr)
        degraded = bool(pool.last_stats and pool.last_stats.fallback)
        return results, degraded


def _serial_batch_results(program: str, store, queries, params):
    """All queries of a serial blastn/blastp invocation through one
    pass over the mmapped store, scored with the program's defaults:
    one :func:`repro.exec.diskpack.search_store_batch` (the store opened
    once, its queries prepared once for every pack)."""
    from repro.blast.alphabet import encode_dna, encode_protein
    from repro.blast.programs import program_defaults
    from repro.exec.diskpack import search_store_batch

    scheme, sparams = program_defaults(program, params)
    encode = encode_dna if program == "blastn" else encode_protein
    return search_store_batch(
        [encode(rec.sequence) for rec in queries], store, scheme, sparams,
        query_ids=[rec.id or "query" for rec in queries],
        both_strands=(program == "blastn"))


def cmd_blastall(args) -> int:
    if not getattr(args, "profile", False):
        return _blastall(args)
    from repro.blast.profile import PROFILE_ENV

    # Set for this command only (pool workers inherit it at fork), so
    # a later in-process main() without the flag stays silent.
    previous = os.environ.get(PROFILE_ENV)
    os.environ[PROFILE_ENV] = "1"
    try:
        return _blastall(args)
    finally:
        if previous is None:
            del os.environ[PROFILE_ENV]
        else:
            os.environ[PROFILE_ENV] = previous


def _blastall(args) -> int:
    from dataclasses import replace

    from repro.blast.fasta import parse_fasta
    from repro.blast.programs import blastall, program_defaults
    from repro.blast.render import render_results
    from repro.exec.shm import PackIntegrityError

    jobs, nodes = args.jobs, args.nodes
    if jobs is None:
        # --nodes with no explicit -j runs remote-only, the pool's own
        # default for a configured node list.
        jobs = 0 if nodes else 1
    if jobs < 1 and not nodes:
        print("# --jobs 0 needs --nodes (a pool must have at least one "
              "worker somewhere)", file=sys.stderr)
        return 2
    store, refused = _open_search_store(
        args.database, "aa" if args.program in ("blastp", "blastx") else "nt",
        args.program)
    if store is None:
        return refused
    with open(args.input) as f:
        queries = parse_fasta(f.read())
    # -e / -F override the program's own defaults, never the class's.
    _, params = program_defaults(args.program)
    if args.evalue is not None:
        params = replace(params, evalue_cutoff=args.evalue)
    if args.filter:
        params = replace(params, filter_low_complexity=True)
    pooled = jobs > 1 or bool(nodes)
    if pooled and args.program not in ("blastn", "blastp"):
        print(f"# --jobs applies to blastn/blastp only; "
              f"running {args.program} serially", file=sys.stderr)
    # blastn / blastp: one pass over the store (or the pool) serves
    # every query of the FASTA file; the other programs and -a
    # rendering read the store into memory.
    precomputed = db = None
    degraded = False
    try:
        if args.program in ("blastn", "blastp") and pooled:
            from repro.exec import PoolJobError

            try:
                precomputed, degraded = _parallel_results(
                    args.program, store, queries, params, jobs, args)
            except PoolJobError as exc:
                print(f"# pool failure: {exc}", file=sys.stderr)
                return EXIT_POOL_FAILURE
        elif args.program in ("blastn", "blastp"):
            precomputed = _serial_batch_results(args.program, store,
                                                queries, params)
        if precomputed is None or (args.alignments
                                   and args.outfmt == "report"):
            db = store.load_db()
    except PackIntegrityError as exc:
        print(f"# pack integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    for qi, rec in enumerate(queries):
        if precomputed is not None:
            results = precomputed[qi]
        else:
            results = blastall(args.program, rec.sequence, db, params=params,
                               query_id=rec.id or "query")
        if args.outfmt == "tabular":
            print(results.tabular(max_hits=BLASTALL_MAX_HITS))
        elif args.outfmt == "xml":
            from repro.blast.xmlout import to_xml

            print(to_xml(results, program=args.program,
                         database=args.database))
        elif args.alignments and precomputed is not None:
            print(render_results(rec.sequence, db, results,
                                 max_hits=BLASTALL_MAX_HITS))
        else:
            print(results.report(max_hits=BLASTALL_MAX_HITS))
        print()
    return EXIT_DEGRADED if degraded else 0


def cmd_psiblast(args) -> int:
    from repro.blast.fasta import parse_fasta
    from repro.blast.psiblast import psiblast
    from repro.exec.shm import PackIntegrityError

    store, refused = _open_search_store(args.database, "aa", "psiblast")
    if store is None:
        return refused
    try:
        db = store.load_db()
    except PackIntegrityError as exc:
        print(f"# pack integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    with open(args.input) as f:
        queries = parse_fasta(f.read())
    for rec in queries:
        result = psiblast(rec.sequence, db, iterations=args.iterations,
                          inclusion_evalue=args.inclusion_evalue,
                          query_id=rec.id or "query")
        for i, res in enumerate(result.iterations, 1):
            print(f"--- iteration {i} ---")
            print(res.report(max_hits=PSIBLAST_MAX_HITS))
        status = "converged" if result.converged else "not converged"
        print(f"[{status} after {result.n_iterations} iteration(s)]")
        print()
    return 0


def cmd_synthdb(args) -> int:
    from repro.exec.diskpack import build_pack_store
    from repro.workloads.synthdb import synthetic_nt_db

    db = synthetic_nt_db(args.residues, seed=args.seed, name=args.name)
    build_pack_store(db, args.output, name=args.name)
    print(f"wrote {len(db)} synthetic sequences "
          f"({db.total_residues} residues) to the pack store {args.output}")
    return 0


def cmd_reproduce(args) -> int:
    from repro.core.figures import reproduce

    result = reproduce(args.figure, scale=args.scale)
    print(result.render())
    return 0


def cmd_experiment(args) -> int:
    from repro.core import (ExperimentConfig, Parallelization, Placement,
                            Variant, run_experiment)
    from repro.trace import analyze

    cfg = ExperimentConfig(
        variant=Variant(args.variant),
        n_workers=args.workers,
        n_servers=args.servers,
        placement=Placement(args.placement),
        n_stressed_disks=args.stress,
        trace=args.trace,
        parallelization=(Parallelization.QUERY_SEGMENTATION if args.queryseg
                         else Parallelization.DATABASE_SEGMENTATION),
        time_limit=1e7,
    )
    if args.scale != 1.0:
        cfg = cfg.scaled(args.scale)
    res = run_experiment(cfg)
    print(f"variant        : {args.variant}")
    print(f"workers/servers: {args.workers}/{args.servers}")
    print(f"database       : {cfg.db.total_bytes / 1e9:.2f} GB "
          f"(scale {args.scale:g})")
    print(f"execution time : {res.execution_time:.1f} s")
    if res.copy_time:
        print(f"copy time      : {res.copy_time:.1f} s per worker "
              f"(excluded, as in the paper)")
    print(f"I/O share      : {100 * res.io_fraction:.1f} %")
    if args.trace and res.tracer is not None:
        print()
        print(analyze(res.tracer).report())
    return 0


def cmd_node(args) -> int:
    from repro.exec.nodes import run_node

    run_node(args.host, args.port, node_id=args.node_id,
             max_sessions=args.max_sessions,
             announce=lambda msg: print(msg, flush=True))
    return 0


def _at_least(kind, low, strict: bool = False):
    """An argparse ``type``: a *kind* (``int`` or ``float``) of at least
    *low* (above it when *strict*); anything else is a usage error."""
    def parse(text: str):
        value = kind(text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse's "invalid int value"
    return parse


def _add_pool_args(p: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs shared by the parallel (``--jobs``)
    subcommands; an unset flag leaves the pool's default."""
    g = p.add_argument_group("pool fault tolerance (with --jobs)")
    g.add_argument("--task-timeout", type=_at_least(float, 0, strict=True),
                   default=None,
                   help="hard deadline before a busy worker is presumed "
                        "hung and killed (default adaptive)")
    g.add_argument("--no-respawn", action="store_true",
                   help="do not replace crashed workers")
    g.add_argument("--no-fallback", action="store_true",
                   help="fail (exit 3) instead of degrading to the serial "
                        "engine when the pool collapses")
    g.add_argument("--nodes", action="append", default=None,
                   metavar="HOST:PORT[,HOST:PORT...]",
                   help="remote worker nodes running `repro node` "
                        "(repeatable and/or comma-separated); fragment "
                        "packs are shipped once, cached by content "
                        "identity, and mirrored --replication ways so a "
                        "node loss is served from a surviving mirror")
    g.add_argument("--replication", type=_at_least(int, 1), default=None,
                   help="copies of each fragment pack across nodes "
                        "(default 2, clamped to the node count)")


def _add_search_args(p: argparse.ArgumentParser) -> None:
    """Every option ``blastall`` and ``blastn`` share (``blastall``
    adds only ``-p``)."""
    p.add_argument("-d", "--database", required=True, metavar="DIR",
                   help="pack store directory (built with `repro packdb "
                        "build`)")
    p.add_argument("-i", "--input", required=True, help="FASTA query file")
    p.add_argument("-e", "--evalue", type=float, default=None)
    p.add_argument("-F", "--filter", action="store_true",
                   help="mask low-complexity query regions (DUST/SEG)")
    p.add_argument("-a", "--alignments", action="store_true",
                   help="print pairwise alignments")
    p.add_argument("-m", "--outfmt", default="report",
                   choices=["report", "tabular", "xml"],
                   help="output format (tabular = NCBI outfmt 6, "
                        "xml = BlastOutput XML)")
    p.add_argument("-j", "--jobs", type=_at_least(int, 0), default=None,
                   help="local worker processes for blastn/blastp "
                        "(multi-core database segmentation; results are "
                        "identical to a serial run; 0 = remote-only, "
                        "needs --nodes; default 1, or 0 with --nodes)")
    p.add_argument("--profile", action="store_true",
                   help="emit per-stage timing JSON (pack/index/scan/"
                        "seed/extend/gapped_bulk/gapped) to stderr; "
                        "REPRO_PROFILE=1 for this command")
    _add_pool_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("blastall", help="run one of the five BLAST programs")
    p.add_argument("-p", "--program", required=True,
                   choices=["blastn", "blastp", "blastx", "tblastn", "tblastx"])
    _add_search_args(p)
    p.set_defaults(fn=cmd_blastall)

    p = sub.add_parser("blastn", help="nucleotide search (blastall -p "
                                      "blastn shortcut with --jobs)")
    _add_search_args(p)
    p.set_defaults(fn=cmd_blastall, program="blastn")

    p = sub.add_parser(
        "packdb",
        help="the on-disk database (formatdb): build, inspect, verify "
             "a pack store")
    psub = p.add_subparsers(dest="packdb_cmd", required=True)
    b = psub.add_parser("build", help="stream FASTA into a pack store")
    b.add_argument("-i", "--input", required=True, help="FASTA file "
                   "(streamed — bounded memory at any corpus size)")
    b.add_argument("-o", "--output", required=True,
                   help="store directory (created if missing)")
    b.add_argument("-n", "--name", default="db", help="store name")
    b.add_argument("-p", "--protein", action="store_true")
    b.add_argument("--fragments", type=_at_least(int, 1), default=4,
                   help="fragment packs to cut the corpus into")
    b.add_argument("--word-size", type=int, default=None,
                   help="word size recorded in the manifest; a store "
                        "serves searches at any (default: 11 nt / 3 aa)")
    b.set_defaults(fn=cmd_packdb_build)
    i = psub.add_parser("info", help="print a store's manifest summary")
    i.add_argument("directory")
    i.set_defaults(fn=cmd_packdb_info)
    v = psub.add_parser("verify", help="CRC-verify every pack; exit 4 "
                                       "on any integrity failure")
    v.add_argument("directory")
    v.set_defaults(fn=cmd_packdb_verify)

    p = sub.add_parser("psiblast", help="position-specific iterated search")
    p.add_argument("-d", "--database", required=True, metavar="DIR",
                   help="protein pack store directory")
    p.add_argument("-i", "--input", required=True, help="FASTA query file")
    p.add_argument("-j", "--iterations", type=_at_least(int, 1), default=3)
    p.add_argument("-h-incl", "--inclusion-evalue", type=float, default=1e-3)
    p.set_defaults(fn=cmd_psiblast)

    p = sub.add_parser("synthdb", help="generate a synthetic nt-like "
                                       "pack store")
    p.add_argument("-o", "--output", required=True,
                   help="store directory (created if missing)")
    p.add_argument("-n", "--name", default="synth-nt")
    p.add_argument("--residues", type=_at_least(int, 1), default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synthdb)

    p = sub.add_parser("node",
                       help="serve this machine as a worker node for "
                            "blastall --nodes (also installed as "
                            "`repro-node`)")
    p.add_argument("--host", default="0.0.0.0",
                   help="interface to listen on (default all)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral; the chosen "
                        "port is announced on stdout)")
    p.add_argument("--node-id", default=None,
                   help="stable identity reported to masters "
                        "(default host:pid)")
    p.add_argument("--max-sessions", type=int, default=None,
                   help="serve this many master connections, then exit "
                        "(default: run until SIGTERM/SIGINT)")
    p.set_defaults(fn=cmd_node)

    p = sub.add_parser("reproduce",
                       help="regenerate one of the paper's tables/figures")
    p.add_argument("--figure", required=True,
                   help="T1, 4, 5, 6, 7 or 9")
    p.add_argument("--scale", type=float, default=0.1,
                   help="database scale (1.0 = the paper's 2.7 GB nt)")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("experiment",
                       help="run one simulated cluster experiment")
    p.add_argument("--variant", default="pvfs",
                   choices=["original", "pvfs", "ceft-pvfs"])
    p.add_argument("--workers", type=int, default=8)
    p.add_argument("--servers", type=int, default=8)
    p.add_argument("--placement", default="colocated",
                   choices=["colocated", "dedicated"])
    p.add_argument("--stress", type=int, default=0,
                   help="number of stressed disks (Figure 8 program)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="database scale factor (1.0 = the 2.7 GB nt)")
    p.add_argument("--trace", action="store_true",
                   help="collect and summarise the I/O trace (Figure 4)")
    p.add_argument("--queryseg", action="store_true",
                   help="use query segmentation instead of database "
                        "segmentation")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def node_main() -> int:
    """Entry point for the ``repro-node`` console script: a bare
    ``repro node`` so cluster job scripts can launch agents without
    spelling the subcommand."""
    return main(["node", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
