"""Dynamic fragment scheduling for the process pool.

The paper's master/worker protocol is greedy: every worker that
announces itself idle is immediately handed the next fragment, so fast
workers naturally absorb more of the database and a straggler never
holds more than one fragment hostage (`parallel/master.py` implements
the same policy for the *simulated* cluster; this module is its
real-execution twin).  Two refinements on top of plain FIFO:

* tasks are issued **heaviest-first** (longest-processing-time order,
  the same greedy bound `seqdb.plan_fragments` uses for binning), which
  tightens the makespan tail when fragments are uneven;
* a task whose worker died or errored is requeued **at the front**
  (matching the degraded-mode `appendleft` of the simulated master),
  with a bounded per-task attempt budget — exhausting it raises
  :class:`RetriesExceeded` and fails the job cleanly instead of
  looping forever on a poisoned fragment;
* a task stuck past its soft deadline can be **hedged**: the same key
  is speculatively issued to an idle worker (the CEFT move of skipping
  a hot primary server and reading the mirror group instead).  The
  first completion wins; late duplicates and failures of the losing
  holders neither requeue the task nor burn its retry budget.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

#: Default master-side cost of one task round-trip (dispatch, socket
#: send/recv, result unpack), seconds.  Measured on the dev box at
#: ~1–2 ms; the pool refines nothing here — the planner only needs the
#: order of magnitude to size ranges.
DEFAULT_TASK_OVERHEAD_S = 1.5e-3

#: Default scan throughput (residues/second) assumed before the pool
#: has observed any completions; the pool feeds its measured rate EMA
#: back in once it has one.
DEFAULT_SCAN_RATE = 30e6

#: A range is considered overhead-amortized when its expected scan time
#: is at least this many times the per-task overhead.
AMORTIZE_FACTOR = 8

#: Load-balance target: with plentiful work, aim for about this many
#: tasks per worker per query batch so the greedy scheduler can still
#: absorb stragglers (one giant task per worker would reintroduce the
#: paper's static-partitioning tail).
BALANCE_TASKS_PER_WORKER = 2

#: Most queries one batched task carries.  Past this the multi-query
#: kernel's shared-scan saving has flattened out while the task's
#: result payload and straggler cost keep growing, so query streams
#: are cut into groups of at most this size.
DEFAULT_MAX_QUERY_BATCH = 32


class RetriesExceeded(RuntimeError):
    """A task failed more times than the retry budget allows."""

    def __init__(self, key, attempts: int):
        super().__init__(f"task {key!r} failed {attempts} times")
        self.key = key
        self.attempts = attempts


def plan_query_batches(n_queries: int,
                       max_batch: int = DEFAULT_MAX_QUERY_BATCH
                       ) -> List[Tuple[int, ...]]:
    """Cut a query stream into contiguous batches for multi-query tasks.

    Pure batching: the group count is the fewest needed to respect
    *max_batch*, with near-equal sizes (remainder spread one-per-group
    from the front).  Keeping workers fed is the pack count's job: the
    pool crosses every batch with every pack, one task each.
    ``max_batch <= 1`` degenerates to one query per group.

    Returns tuples of query indices covering ``range(n_queries)`` in
    order.
    """
    n_queries = int(n_queries)
    if n_queries <= 0:
        return []
    max_batch = max(1, int(max_batch))
    n_groups = -(-n_queries // max_batch)
    base, extra = divmod(n_queries, n_groups)
    out: List[Tuple[int, ...]] = []
    lo = 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        out.append(tuple(range(lo, lo + size)))
        lo += size
    return out


def plan_task_ranges(weights: Sequence[float], n_queries: int, jobs: int,
                     granularity: Optional[int] = None, *,
                     overhead_s: float = DEFAULT_TASK_OVERHEAD_S,
                     scan_rate: float = DEFAULT_SCAN_RATE,
                     queries_per_task: int = 1
                     ) -> List[Tuple[int, ...]]:
    """Group fragment indices into contiguous ranges sized so the
    per-task round-trip overhead is amortized.

    This is the paper's fragment-granularity trade-off made explicit:
    too many fragments per job and the master's dispatch/merge overhead
    dominates (our measured 0.83x at 2 jobs / 4 per-fragment tasks);
    too few and a straggler holds the whole makespan hostage.  The
    planner balances three pressures per query:

    * **amortization** — a range should scan for at least
      ``AMORTIZE_FACTOR * overhead_s`` seconds (at *scan_rate*
      residues/s), which caps the useful number of ranges;
    * **capacity** — with ``n_queries`` queries streaming through the
      same task queue, each query needs at least ``jobs / n_queries``
      ranges for every worker to have work at all;
    * **balance** — given room, prefer about
      ``BALANCE_TASKS_PER_WORKER`` tasks per worker so the greedy
      scheduler can still route around stragglers.

    *weights* is the per-fragment residue count, in fragment order.
    An explicit *granularity* (fragments per task; ``1`` reproduces
    the legacy one-task-per-fragment protocol) bypasses the adaptive
    logic.  *queries_per_task* scales only the amortization pressure:
    a task carrying a batch of Q queries scans Q times the residues of
    its range, so the same range amortizes its round-trip Q times
    sooner.  Returns a list of index tuples, each contiguous in
    fragment order, together covering every index exactly once.
    """
    n = len(weights)
    if n == 0:
        return []
    indices = list(range(n))
    if granularity is not None:
        g = max(1, int(granularity))
        return [tuple(indices[i:i + g]) for i in range(0, n, g)]
    jobs = max(1, int(jobs))
    n_queries = max(1, int(n_queries))
    total_w = float(sum(weights))
    # A batched task re-scans its range once per query it carries.
    total_scan_w = total_w * max(1, int(queries_per_task))
    amortized_w = AMORTIZE_FACTOR * max(overhead_s, 1e-9) * max(scan_rate, 1.0)
    c_amortize = max(1, int(total_scan_w // amortized_w))
    c_capacity = -(-jobs // n_queries)
    c_balance = -(-BALANCE_TASKS_PER_WORKER * jobs // n_queries)
    c = min(max(c_balance, c_capacity), n)
    if c > c_amortize:
        # Not enough work to amortize that many round-trips; shrink to
        # the amortized count but never below what keeps workers fed.
        c = min(n, max(c_amortize, c_capacity))
    return weighted_contiguous_cuts(weights, c)


def weighted_contiguous_cuts(weights: Sequence[float],
                             c: int) -> List[Tuple[int, ...]]:
    """Cut ``range(len(weights))`` into *c* contiguous, non-empty index
    ranges with boundaries at equal shares of cumulative weight, so a
    fat fragment does not land a fat range.  Shared by the task-range
    planner and the mirror-group planner — both need the same
    balance-under-contiguity primitive."""
    n = len(weights)
    indices = list(range(n))
    c = max(1, min(int(c), n))
    if c <= 1:
        return [tuple(indices)]
    total_w = float(sum(weights))
    cum = []
    acc = 0.0
    for w in weights:
        acc += float(w)
        cum.append(acc)
    cuts = [0]
    for j in range(1, c):
        target = total_w * j / c
        lo = cuts[-1] + 1
        pos = lo
        while pos < n and cum[pos - 1] < target:
            pos += 1
        # Leave room for the remaining c - j ranges to be non-empty.
        pos = min(pos, n - (c - j))
        cuts.append(max(pos, lo))
    cuts.append(n)
    return [tuple(indices[cuts[j]:cuts[j + 1]]) for j in range(c)]


def plan_mirror_groups(weights: Sequence[float],
                       node_ranks: Sequence[int], replication: int
                       ) -> Tuple[List[Tuple[int, ...]],
                                  List[Tuple[int, ...]]]:
    """CEFT-style fragment placement: contiguous, weight-balanced
    fragment groups, each mirrored onto *replication* nodes.

    Returns ``(groups, group_nodes)``: ``groups[g]`` is the tuple of
    fragment indices in group *g*, ``group_nodes[g]`` the node ranks
    holding a full copy of every fragment in it.  Mirrors are the
    rotationally-next nodes (group *g* lives on nodes ``g, g+1, …``
    mod the node count — the paper's RAID-10-over-CEFT-PVFS stripe
    layout), so replicas spread evenly and losing any single node
    leaves every group with at least one surviving holder whenever
    ``replication >= 2``.  With no nodes at all the placement is empty
    (the pool serves everything locally).
    """
    nodes = list(node_ranks)
    n = len(weights)
    if not nodes or n == 0:
        return ([tuple(range(n))] if n else []), ([()] if n else [])
    r = max(1, min(int(replication), len(nodes)))
    groups = weighted_contiguous_cuts(weights, min(len(nodes), n))
    group_nodes = [tuple(nodes[(g + j) % len(nodes)] for j in range(r))
                   for g in range(len(groups))]
    return groups, group_nodes


class GreedyScheduler:
    """Hand tasks to idle workers, heaviest first, requeue on failure.

    *tasks* is an iterable of ``(key, weight)`` pairs; keys must be
    hashable and unique.  The scheduler never talks to processes — the
    pool translates ``assign``/``complete``/``fail`` into messages.

    *affinity* (optional) maps a task key to the ordered tuple of
    worker ranks that can serve it — in the multi-node runtime, the
    nodes holding the task's fragment packs (primary first) plus any
    local workers.  ``assign`` then implements the paper's "original"
    locality scheme as a cache policy: an idle worker first takes the
    heaviest pending task it is *primary* for, then any it is eligible
    for, and never one whose packs it does not hold.  Keys absent from
    the map are unconstrained.  With no affinity map at all the
    scheduler behaves exactly as before.
    """

    def __init__(self, tasks: Iterable[Tuple[Hashable, float]],
                 max_retries: int = 2,
                 affinity: Optional[Dict[Hashable,
                                         Sequence[int]]] = None):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        ordered = sorted(enumerate(tasks), key=lambda t: (-t[1][1], t[0]))
        self._pending = deque(key for _, (key, _w) in ordered)
        if len({*self._pending}) != len(self._pending):
            raise ValueError("duplicate task keys")
        self._affinity: Dict[Hashable, Tuple[int, ...]] = {
            k: tuple(v) for k, v in (affinity or {}).items()}
        self.max_retries = max_retries
        self.outstanding: Dict[int, Hashable] = {}   # rank -> key
        self._holders: Dict[Hashable, Set[int]] = {}  # key -> ranks holding it
        self._done: Set[Hashable] = set()
        self._attempts: Dict[Hashable, int] = {}
        self.completed: List[Hashable] = []
        self.requeues = 0
        self.hedges = 0

    # ------------------------------------------------------------------
    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    @property
    def done(self) -> bool:
        """No queued work and every issued key completed.  A straggler
        still *holding* a completed key (the losing side of a hedge)
        does not keep the run alive — the pool reaps it separately."""
        return not self._pending and all(
            key in self._done for key in self.outstanding.values())

    def is_completed(self, key: Hashable) -> bool:
        """Whether some holder already delivered this key's result."""
        return key in self._done

    def holder_count(self, key: Hashable) -> int:
        """How many workers currently hold this key (>1 = hedged)."""
        return len(self._holders.get(key, ()))

    def eligible(self, rank: int, key: Hashable) -> bool:
        """Whether *rank* may serve *key* (no affinity = anyone may)."""
        aff = self._affinity.get(key)
        return aff is None or rank in aff

    def unplaceable(self, live_ranks) -> List[Hashable]:
        """Pending keys no live rank is eligible for — in CEFT terms,
        fragments whose *last mirror* is gone.  The pool checks this
        each tick and fails the job (into serial fallback) rather than
        spin forever on work nobody can serve."""
        if not self._affinity:
            return []
        live = set(live_ranks)
        return [k for k in self._pending
                if self._affinity.get(k) is not None
                and not live.intersection(self._affinity[k])]

    def assign(self, rank: int) -> Optional[Hashable]:
        """Give the next task to an idle worker.

        Heaviest-first among tasks *rank* is eligible for, preferring
        ones it is the *primary* holder of (locality: scan your own
        fragments before relieving a mirror).  ``None`` when the queue
        is drained — or, under affinity, when nothing pending can run
        on this worker.
        """
        if rank in self.outstanding:
            raise ValueError(f"worker {rank} already holds a task")
        if not self._pending:
            return None
        if not self._affinity:
            key = self._pending.popleft()
        else:
            key = None
            fallback = None
            for k in self._pending:
                aff = self._affinity.get(k)
                if aff is not None and aff[0] == rank:
                    key = k              # heaviest task we are primary for
                    break
                if fallback is None and (aff is None or rank in aff):
                    fallback = k
            if key is None:
                key = fallback
            if key is None:
                return None
            self._pending.remove(key)
        self.outstanding[rank] = key
        self._holders.setdefault(key, set()).add(rank)
        return key

    def hedge(self, rank: int, key: Hashable) -> Hashable:
        """Speculatively issue an already-outstanding *key* to the idle
        worker *rank* as well: whichever holder answers first wins."""
        if rank in self.outstanding:
            raise ValueError(f"worker {rank} already holds a task")
        holders = self._holders.get(key)
        if not holders or key in self._done:
            raise ValueError(f"task {key!r} is not outstanding")
        self.outstanding[rank] = key
        holders.add(rank)
        self.hedges += 1
        return key

    def complete(self, rank: int) -> Hashable:
        """The worker finished its task; it is idle again.  Only the
        first completion of a key counts — a hedge loser's late result
        just clears its bookkeeping (the pool discards the payload)."""
        key = self.outstanding.pop(rank)
        holders = self._holders.get(key)
        if holders is not None:
            holders.discard(rank)
            if not holders:
                del self._holders[key]
        if key not in self._done:
            self._done.add(key)
            self.completed.append(key)
        return key

    def fail(self, rank: int) -> Optional[Hashable]:
        """The worker died or errored mid-task: requeue its task at the
        front for the next idle worker.  Raises :class:`RetriesExceeded`
        once the task burns through its attempt budget.  A failure on a
        key that is already completed, or that another (hedge) holder
        still carries, requeues nothing and costs no attempt."""
        key = self.outstanding.pop(rank, None)
        if key is None:
            return None
        holders = self._holders.get(key)
        if holders is not None:
            holders.discard(rank)
            if not holders:
                del self._holders[key]
        if key in self._done or self._holders.get(key):
            return None
        attempts = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempts
        if attempts > self.max_retries:
            raise RetriesExceeded(key, attempts)
        self._pending.appendleft(key)
        self.requeues += 1
        return key

    def drop_pending(self) -> int:
        """Abandon queued work (job-failure drain); outstanding tasks
        still complete so the pool stays message-consistent."""
        dropped = len(self._pending)
        self._pending.clear()
        return dropped
