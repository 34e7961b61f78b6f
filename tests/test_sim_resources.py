"""Unit tests for resources, stores, containers, monitors, RNG streams."""

import pytest

from repro.sim import (
    Container,
    Monitor,
    PriorityResource,
    RandomStreams,
    Resource,
    Simulator,
    Store,
    TimeWeightedMonitor,
    Timeout,
)


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    times = []

    def user(sim, res, hold):
        req = res.request()
        yield req
        start = sim.now
        yield Timeout(sim, hold)
        req.release()
        times.append((start, sim.now))

    for _ in range(4):
        sim.process(user(sim, res, 1.0))
    sim.run()
    starts = sorted(t[0] for t in times)
    assert starts == [0.0, 0.0, 1.0, 1.0]


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_fcfs_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, res, tag):
        req = res.request()
        yield req
        order.append(tag)
        yield Timeout(sim, 1.0)
        req.release()

    for tag in "abc":
        sim.process(user(sim, res, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_release_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        req = res.request()
        yield req
        req.release()
        req.release()  # second release is a no-op

    p = sim.process(user(sim, res))
    sim.run()
    assert p.ok
    assert res.count == 0


def test_resource_context_manager():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        with (yield res.request()):
            yield Timeout(sim, 1.0)
        return res.count

    p = sim.process(user(sim, res))
    sim.run()
    assert p.value == 0


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    got = []

    def holder(sim, res):
        req = res.request()
        yield req
        yield Timeout(sim, 10.0)
        req.release()

    def impatient(sim, res):
        req = res.request()
        yield Timeout(sim, 1.0)  # give up before being granted
        req.release()
        got.append("gave up")

    def patient(sim, res):
        req = res.request()
        yield req
        got.append(("granted", sim.now))
        req.release()

    sim.process(holder(sim, res))
    sim.process(impatient(sim, res))
    sim.process(patient(sim, res))
    sim.run()
    assert "gave up" in got
    assert ("granted", 10.0) in got


def test_priority_resource_orders_by_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder(sim, res):
        req = res.request()
        yield req
        yield Timeout(sim, 5.0)
        req.release()

    def user(sim, res, prio, tag):
        yield Timeout(sim, 1.0)  # arrive after holder owns the resource
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        req.release()

    sim.process(holder(sim, res))
    sim.process(user(sim, res, 2, "low"))
    sim.process(user(sim, res, 0, "high"))
    sim.process(user(sim, res, 1, "mid"))
    sim.run()
    assert order == ["high", "mid", "low"]


def test_priority_resource_release_queued():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)

    def holder(sim, res):
        req = res.request()
        yield req
        yield Timeout(sim, 5.0)
        req.release()

    def quitter(sim, res):
        yield Timeout(sim, 1.0)
        req = res.request(priority=0)
        yield Timeout(sim, 0.5)
        req.release()  # abandon while queued

    def steady(sim, res):
        yield Timeout(sim, 2.0)
        req = res.request(priority=5)
        yield req
        return sim.now

    sim.process(holder(sim, res))
    sim.process(quitter(sim, res))
    p = sim.process(steady(sim, res))
    sim.run()
    assert p.value == 5.0  # quitter's abandoned request did not block


# ---------------------------------------------------------------- Store
def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)

    def producer(sim, store):
        for i in range(3):
            yield Timeout(sim, 1.0)
            yield store.put(i)

    def consumer(sim, store):
        out = []
        for _ in range(3):
            item = yield store.get()
            out.append(item)
        return out

    sim.process(producer(sim, store))
    p = sim.process(consumer(sim, store))
    sim.run()
    assert p.value == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer(sim, store):
        item = yield store.get()
        return (sim.now, item)

    def producer(sim, store):
        yield Timeout(sim, 3.0)
        yield store.put("x")

    p = sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert p.value == (3.0, "x")


def test_store_bounded_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)

    def producer(sim, store):
        yield store.put("a")
        yield store.put("b")  # blocks until consumer takes "a"
        return sim.now

    def consumer(sim, store):
        yield Timeout(sim, 4.0)
        yield store.get()

    p = sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert p.value == 4.0


# ---------------------------------------------------------------- Container
def test_container_get_blocks_until_level():
    sim = Simulator()
    tank = Container(sim, capacity=100, init=0)

    def filler(sim, tank):
        yield Timeout(sim, 2.0)
        yield tank.put(50)

    def drainer(sim, tank):
        yield tank.get(30)
        return (sim.now, tank.level)

    sim.process(filler(sim, tank))
    p = sim.process(drainer(sim, tank))
    sim.run()
    assert p.value == (2.0, 20.0)


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    tank = Container(sim, capacity=10, init=10)

    def putter(sim, tank):
        yield tank.put(5)
        return sim.now

    def getter(sim, tank):
        yield Timeout(sim, 3.0)
        yield tank.get(5)

    p = sim.process(putter(sim, tank))
    sim.process(getter(sim, tank))
    sim.run()
    assert p.value == 3.0


def test_container_validates_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=5, init=10)
    tank = Container(sim, capacity=5)
    with pytest.raises(ValueError):
        tank.put(-1)
    with pytest.raises(ValueError):
        tank.get(-1)


# ---------------------------------------------------------------- Monitors
def test_monitor_statistics():
    sim = Simulator()
    mon = Monitor(sim)

    def proc(sim, mon):
        for v in (1.0, 2.0, 3.0, 4.0):
            yield Timeout(sim, 1.0)
            mon.observe(v)

    sim.process(proc(sim, mon))
    sim.run()
    assert mon.count == 4
    assert mon.mean == 2.5
    assert mon.minimum == 1.0
    assert mon.maximum == 4.0
    assert mon.total == 10.0
    assert mon.variance == pytest.approx(5.0 / 3.0)
    assert mon.series()[0] == (1.0, 1.0)


def test_time_weighted_monitor_average():
    sim = Simulator()
    mon = TimeWeightedMonitor(sim)

    def proc(sim, mon):
        yield Timeout(sim, 2.0)
        mon.set(1.0)       # level 0 for [0,2)
        yield Timeout(sim, 2.0)
        mon.set(3.0)       # level 1 for [2,4)
        yield Timeout(sim, 4.0)
        mon.set(0.0)       # level 3 for [4,8)

    sim.process(proc(sim, mon))
    sim.run()
    # integral = 0*2 + 1*2 + 3*4 = 14 over 8 seconds
    assert mon.time_average == pytest.approx(14.0 / 8.0)
    assert mon.maximum == 3.0


# ---------------------------------------------------------------- RNG
def test_rng_streams_are_deterministic():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert a.stream("disk").random() == b.stream("disk").random()


def test_rng_streams_are_independent_across_names():
    rs = RandomStreams(seed=7)
    x = rs.stream("disk").random(5)
    y = rs.stream("net").random(5)
    assert list(x) != list(y)


def test_rng_stream_is_cached():
    rs = RandomStreams(seed=7)
    assert rs.stream("a") is rs.stream("a")
    assert "a" in rs


def test_rng_different_seeds_differ():
    a = RandomStreams(seed=1)
    b = RandomStreams(seed=2)
    assert a.stream("x").random() != b.stream("x").random()
