"""Fault injection and the hardened pool: plan round-trips, injector
matching, scheduler hedging, and end-to-end chaos runs proving the
pool keeps serving byte-identical results through kill / hang / slow /
drop-result faults, raises on corrupt packs, respawns lost capacity,
degrades gracefully to the serial engine, and tears down in bounded
time — all without leaking a single /dev/shm segment."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.blast.score import NucleotideScore
from repro.blast.search import SearchParams, search
from repro.blast.seqdb import NT, SequenceDB
from repro.exec import (ExecPool, Fault, FaultInjector, FaultPlan,
                        GreedyScheduler, PackIntegrityError, PoolJobError,
                        random_plan)
from repro.exec.faults import FAULT_PLAN_ENV, HANG_FOREVER, FailureLedger

NT_LETTERS = np.array(list("ACGT"))


pytestmark = pytest.mark.usefixtures("no_segment_leaks")


def random_nt_db(rng, n_seqs, min_len=100, max_len=300):
    db = SequenceDB(NT)
    for i in range(n_seqs):
        length = int(rng.integers(min_len, max_len))
        db.add(f"s{i} desc", "".join(NT_LETTERS[rng.integers(0, 4, length)]))
    return db


def dump(results):
    """Full byte-level result dump (every HSP field, hit order, ids)."""
    return (results.query_id, results.query_len, results.db_residues,
            results.db_sequences,
            [(h.subject_id, h.description, h.subject_len, h.fragment_id,
              [dataclasses.astuple(p) for p in h.hsps])
             for h in results.hits])


@pytest.fixture
def workload():
    rng = np.random.default_rng(42)
    db = random_nt_db(rng, 24)
    scheme = NucleotideScore()
    params = SearchParams(word_size=11)
    queries = [db.sequence(i)[:150].copy() for i in (2, 9, 17)]
    serial = [dump(search(q, db, scheme, params)) for q in queries]
    return db, scheme, params, queries, serial


def run_pool(db, scheme, params, queries, **pool_kw):
    with ExecPool(jobs=2, **pool_kw) as pool:
        results = pool.search_many(queries, db, scheme, params,
                                   n_fragments=4)
        live = len(pool._live())
        stats = pool.last_stats
        ledger = pool.ledger.summary()
    return [dump(r) for r in results], live, stats, ledger


# ----------------------------------------------------------------------
# Plans, env hook, injector
# ----------------------------------------------------------------------
def test_fault_plan_json_roundtrip():
    plan = FaultPlan(faults=(Fault("kill", rank=1, task_index=0),
                             Fault("slow", delay=0.5, once=False)),
                     seed=7)
    back = FaultPlan.from_json(plan.to_json())
    assert back == plan
    assert back.seed == 7
    assert len(back) == 2


def test_fault_plan_bare_list_shorthand():
    plan = FaultPlan.from_json('[{"kind": "hang", "rank": 0}]')
    assert plan.faults == (Fault("hang", rank=0),)
    assert plan.seed is None


@pytest.mark.parametrize("text", [
    "not json at all",
    '{"faults": 3}',
    '"a string"',
    '[{"kind": "explode"}]',
    '[{"kind": "kill", "bogus_field": 1}]',
    '[{"kind": "partition"}]',
    '[{"kind": "delay", "delay": 0.3}]',
    '[{"kind": "reorder"}]',
])
def test_fault_plan_bad_input_raises(text):
    with pytest.raises(ValueError):
        FaultPlan.from_json(text)


def test_fault_plan_from_env_inline_and_file(tmp_path, monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    assert FaultPlan.from_env() is None
    plan = FaultPlan(faults=(Fault("kill", rank=0),), seed=3)
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    assert FaultPlan.from_env() == plan
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    monkeypatch.setenv(FAULT_PLAN_ENV, f"@{path}")
    assert FaultPlan.from_env() == plan


def test_fault_stall_defaults():
    assert Fault("hang").stall == HANG_FOREVER
    assert Fault("slow").stall == pytest.approx(0.75)
    assert Fault("slow", delay=2.0).stall == pytest.approx(2.0)


def test_random_plan_is_deterministic():
    a = random_plan(11, n_workers=4)
    b = random_plan(11, n_workers=4)
    assert a == b and a.seed == 11
    assert all(f.kind != "corrupt_pack" for f in a.faults)
    assert random_plan(12, n_workers=4) != a


def test_injector_rank_filter_and_task_index():
    plan = FaultPlan(faults=(Fault("kill", rank=1, task_index=1),
                             Fault("slow", rank=0)))
    inj0 = FaultInjector(plan, rank=0)
    inj1 = FaultInjector(plan, rank=1)
    # rank 0 only sees the slow fault, on its first task, once.
    assert inj0.on_task(0, 0).kind == "slow"
    assert inj0.on_task(1, 0) is None
    # rank 1's kill is armed against its *second* task.
    assert inj1.on_task(0, 0) is None
    assert inj1.on_task(0, 1).kind == "kill"
    assert inj1.on_task(0, 2) is None


def test_injector_once_false_keeps_firing():
    plan = FaultPlan(faults=(Fault("slow", once=False),))
    inj = FaultInjector(plan, rank=0)
    assert inj.on_task(0, 0) is not None
    assert inj.on_task(1, 1) is not None


def test_injector_attach_matches_corrupt_only():
    plan = FaultPlan(faults=(Fault("corrupt_pack", fragment=2),
                             Fault("kill",)))
    inj = FaultInjector(plan, rank=0)
    assert inj.on_attach(0) is None
    assert inj.on_attach(2).kind == "corrupt_pack"
    assert inj.on_attach(2) is None          # once
    # attach never consumes task faults; the kill is still armed.
    assert inj.on_task(0, 0).kind == "kill"


def test_ledger_counters_and_anomalies():
    led = FailureLedger()
    led.record("requeue", rank=0, task=(0, "f"))
    led.record("hedge", rank=1)
    led.record("result_mismatch", detail="boom")
    assert len(led) == 3
    assert led.summary() == {"requeue": 1, "hedge": 1, "result_mismatch": 1}
    assert led.anomalies() == 1
    assert FailureLedger().anomalies() == 0


# ----------------------------------------------------------------------
# Scheduler hedging
# ----------------------------------------------------------------------
def test_scheduler_hedge_first_result_wins():
    sched = GreedyScheduler([("a", 2.0), ("b", 1.0)])
    assert sched.assign(0) == "a"
    assert sched.assign(1) == "b"
    sched.complete(1)
    sched.hedge(1, "a")
    assert sched.holder_count("a") == 2
    assert sched.complete(1) == "a"          # hedge wins
    assert sched.is_completed("a")
    # The losing holder does not keep the run alive (the pool reaps it).
    assert sched.done
    assert sched.complete(0) == "a"          # loser's late result
    assert sched.completed == ["b", "a"]     # counted once
    assert sched.done


def test_scheduler_hedge_loser_failure_costs_nothing():
    sched = GreedyScheduler([("a", 1.0)], max_retries=0)
    sched.assign(0)
    sched.hedge(1, "a")
    # The hedged holder dies: other holder remains, no attempt burned.
    assert sched.fail(1) is None
    assert sched.requeues == 0
    sched.complete(0)
    assert sched.done
    # With max_retries=0 a real (sole-holder) failure would have raised.


def test_scheduler_done_ignores_holders_of_completed_keys():
    sched = GreedyScheduler([("a", 1.0)])
    sched.assign(0)
    sched.hedge(1, "a")
    sched.complete(1)
    assert sched.done                        # rank 0's copy is moot
    # A later failure of the stuck loser is a no-op.
    assert sched.fail(0) is None
    assert sched.done


def test_scheduler_hedge_rejects_busy_or_unknown():
    sched = GreedyScheduler([("a", 1.0), ("b", 1.0)])
    sched.assign(0)
    with pytest.raises(ValueError):
        sched.hedge(0, "a")                  # rank 0 is busy
    with pytest.raises(ValueError):
        sched.hedge(1, "zzz")                # never issued
    sched.complete(0)
    with pytest.raises(ValueError):
        sched.hedge(1, "a")                  # already completed


# ----------------------------------------------------------------------
# End-to-end chaos: the pool keeps serving
# ----------------------------------------------------------------------
def test_kill_fault_respawn_restores_capacity(workload):
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("kill", rank=0, task_index=0),))
    got, live, stats, ledger = run_pool(db, scheme, params, queries,
                                        fault_plan=plan, task_sleep=0.05)
    assert got == serial
    assert live == 2, "respawn must restore full configured capacity"
    assert 0 in stats.worker_deaths
    assert stats.respawns >= 1
    assert ledger.get("worker_death", 0) >= 1
    assert ledger.get("respawn", 0) >= 1
    assert ledger.get("requeue", 0) >= 1


def test_hang_fault_silent_worker_is_killed_and_recovers(workload):
    """A hung agent stops answering PINGs while it holds a task; after
    ``node_timeout`` of silence it is killed, its task requeued and its
    slot respawned."""
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("hang", rank=0, task_index=0),))
    got, live, stats, ledger = run_pool(
        db, scheme, params, queries, fault_plan=plan,
        hedge_after=100.0, node_timeout=0.8)
    assert got == serial
    assert live == 2
    assert stats.heartbeat_losses >= 1
    assert ledger.get("heartbeat_lost", 0) >= 1
    assert ledger.get("requeue", 0) >= 1
    assert ledger.get("respawn", 0) >= 1


def test_slow_fault_hedged_reissue_wins(workload):
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("slow", rank=0, task_index=0,
                                   delay=3.0),))
    got, live, stats, ledger = run_pool(
        db, scheme, params, queries, fault_plan=plan,
        hedge_after=0.25)
    assert got == serial
    assert stats.hedges >= 1
    assert stats.hedge_wins >= 1, \
        "an idle worker should beat a 3 s straggler"
    assert ledger.get("hedge", 0) >= 1
    assert ledger.get("hedge_win", 0) >= 1
    # No kill was needed: the straggler answers, so it is routed
    # around, not shot.
    assert stats.heartbeat_losses == 0 and stats.respawns == 0


def test_drop_result_fault_is_recovered(workload):
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("drop_result", rank=0, task_index=0),))
    got, live, stats, ledger = run_pool(
        db, scheme, params, queries, fault_plan=plan,
        hedge_after=0.25)
    assert got == serial
    assert stats.hedges >= 1 or stats.heartbeat_losses >= 1


def test_corrupt_pack_raises_integrity_error(workload):
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("corrupt_pack", rank=0, fragment=0),))
    with ExecPool(jobs=2, fault_plan=plan) as pool:
        with pytest.raises(PackIntegrityError):
            pool.search_many(queries, db, scheme, params, n_fragments=4)
        assert pool.ledger.summary().get("integrity", 0) >= 1
        assert pool.last_stats.integrity_failures >= 1
    # Context exit still released every pack (autouse leak fixture).


def test_pool_collapse_degrades_to_serial(workload, monkeypatch):
    db, scheme, params, queries, serial = workload
    # Every worker dies on its first task; no respawn, no retries.
    plan = FaultPlan(faults=(Fault("kill"),))
    monkeypatch.setattr("repro.exec.pool._MAX_RETRIES", 0)
    with ExecPool(jobs=2, fault_plan=plan, respawn=False) as pool:
        with pytest.warns(RuntimeWarning, match="degraded"):
            results = pool.search_many(queries, db, scheme, params,
                                       n_fragments=4)
        assert [dump(r) for r in results] == serial
        assert pool.last_stats.fallback is True
        assert pool.ledger.summary().get("fallback", 0) == 1
        assert pool.ledger.summary().get("worker_death", 0) >= 1
        assert pool.ledger.anomalies() == 0


def test_no_fallback_raises_pool_job_error(workload, monkeypatch):
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("kill"),))
    monkeypatch.setattr("repro.exec.pool._MAX_RETRIES", 0)
    with ExecPool(jobs=2, fault_plan=plan, respawn=False,
                  serial_fallback=False) as pool:
        with pytest.raises(PoolJobError):
            pool.search_many(queries, db, scheme, params, n_fragments=4)


def test_respawned_pool_reuses_packs_across_runs(workload):
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("kill", rank=0, task_index=0),))
    with ExecPool(jobs=2, fault_plan=plan, task_sleep=0.05) as pool:
        first = pool.search_many(queries, db, scheme, params, n_fragments=4)
        assert pool.total_respawns >= 1
        # The respawned worker re-attached the packs: a second, fault-free
        # run must work at full capacity with identical bytes.
        second = pool.search_many(queries, db, scheme, params, n_fragments=4)
        assert [dump(r) for r in second] == serial
    assert [dump(r) for r in first] == serial


def test_env_fault_plan_reaches_the_pool(workload, monkeypatch):
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("kill", rank=0, task_index=0),))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    got, live, stats, ledger = run_pool(db, scheme, params, queries,
                                        task_sleep=0.05)
    assert got == serial
    assert ledger.get("worker_death", 0) >= 1


def test_disconnect_fault_on_a_pipe_worker(workload):
    """Every fault kind lives in the one worker loop, so a local worker
    honours ``disconnect`` too: it leaves without a goodbye — the master
    sees EOF on the socket, requeues, respawns."""
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("disconnect", rank=0, task_index=0),))
    got, live, stats, ledger = run_pool(db, scheme, params, queries,
                                        fault_plan=plan, task_sleep=0.05)
    assert got == serial
    assert live == 2 and not stats.fallback
    assert ledger.get("worker_death", 0) >= 1
    assert ledger.get("respawn", 0) >= 1


def test_delay_fault_on_a_pipe_worker(workload):
    """A ``hang`` shorter than ``node_timeout`` is a late result, not a
    death: the worker is silent for its ``delay``, then serves."""
    db, scheme, params, queries, serial = workload
    plan = FaultPlan(faults=(Fault("hang", rank=0, task_index=0,
                                   delay=0.3),))
    with ExecPool(jobs=2, fault_plan=plan, task_sleep=0.05) as pool:
        results = pool.search_many(queries, db, scheme, params,
                                   n_fragments=4)
        assert [dump(r) for r in results] == serial
        assert pool.ledger.anomalies() == 0
        assert not pool.last_stats.fallback
        assert pool.last_stats.worker_deaths == []


def test_close_escalates_past_hung_worker(workload, monkeypatch):
    db, scheme, params, queries, serial = workload
    # A worker stuck in a long in-task sleep ignores "stop"; close()
    # must escalate terminate -> kill inside its bounded budget instead
    # of waiting out the sleep.
    plan = FaultPlan(faults=(Fault("hang", rank=0, task_index=0,
                                   delay=60.0),))
    monkeypatch.setattr("repro.exec.pool._JOIN_TIMEOUT", 0.3)
    pool = ExecPool(jobs=1, fault_plan=plan,
                    hedge_after=100.0,
                    respawn=False, serial_fallback=False)
    errors = []

    def run():
        try:
            pool.search_many(queries[:1], db, scheme, params, n_fragments=2)
        except Exception as exc:           # expected: pool torn down
            errors.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if any(w.busy is not None for w in pool._workers):
            break
        time.sleep(0.02)
    procs = [w.process for w in pool._workers]
    t0 = time.monotonic()
    pool.close()
    elapsed = time.monotonic() - t0
    t.join(timeout=10)
    assert not t.is_alive()
    assert elapsed < 5.0, f"close took {elapsed:.1f}s against a 60s hang"
    for p in procs:
        assert not p.is_alive()
