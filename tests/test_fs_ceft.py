"""Unit tests for CEFT-PVFS: mirrored layout, doubled-parallelism reads,
write duplexing protocols, and hot-spot skipping."""

import pytest

from repro.cluster import Cluster, disk_stressor
from repro.cluster.params import KiB, MB, MiB
from repro.fs.ceft import CEFT, PRIMARY, MIRROR, WriteProtocol
from repro.fs.interface import FSError
from repro.trace import TraceCollector


def make_ceft(group=2, n_extra=1, monitor_load=False, **kw):
    c = Cluster(n_nodes=2 * group + n_extra)
    nodes = list(c)
    fs = CEFT(nodes[0],
              primary_nodes=nodes[n_extra:n_extra + group],
              mirror_nodes=nodes[n_extra + group:n_extra + 2 * group],
              tracer=TraceCollector(), monitor_load=monitor_load, **kw)
    return c, fs


def run(c, gen, limit=1e12):
    p = c.sim.process(gen)
    c.sim.run_until_complete(p, limit=limit)
    if p.failed:
        raise p.value
    return p.value


def test_group_size_validation():
    c = Cluster(n_nodes=4)
    with pytest.raises(ValueError):
        CEFT(c[0], [c[1]], [c[2], c[3]])
    with pytest.raises(ValueError):
        CEFT(c[0], [], [])


def test_basic_counts():
    c, fs = make_ceft(group=3)
    assert fs.group_size == 3
    assert fs.n_servers == 6


def test_doubled_parallelism_read_uses_both_groups():
    c, fs = make_ceft(group=2)
    client = fs.client(c[0])
    fs.populate("db", 8 * MiB, mirrored=True)

    def proc():
        yield from client.read("db", 0, 8 * MiB)

    run(c, proc())
    p_bytes = sum(s.bytes_served for s in fs.primary)
    m_bytes = sum(s.bytes_served for s in fs.mirror)
    assert p_bytes == 4 * MiB
    assert m_bytes == 4 * MiB


def test_unmirrored_file_reads_primary_only():
    c, fs = make_ceft(group=2)
    client = fs.client(c[0])
    fs.populate("db", 8 * MiB, mirrored=False)

    def proc():
        yield from client.read("db", 0, 8 * MiB)

    run(c, proc())
    assert sum(s.bytes_served for s in fs.primary) == 8 * MiB
    assert sum(s.bytes_served for s in fs.mirror) == 0


def test_double_parallelism_disabled_reads_one_group():
    c, fs = make_ceft(group=2, double_parallelism=False)
    client = fs.client(c[0])
    fs.populate("db", 8 * MiB, mirrored=True)

    def proc():
        yield from client.read("db", 0, 8 * MiB)

    run(c, proc())
    assert sum(s.bytes_served for s in fs.primary) == 8 * MiB
    assert sum(s.bytes_served for s in fs.mirror) == 0


def test_doubled_parallelism_speeds_up_reads():
    def read_time(double):
        c, fs = make_ceft(group=2, double_parallelism=double)
        client = fs.client(c[0])
        fs.populate("db", 50 * MB, mirrored=True)

        def proc():
            yield from client.read("db", 0, 50 * MB)
            return c.sim.now

        return run(c, proc())

    t_single = read_time(False)
    t_double = read_time(True)
    assert t_double < 0.65 * t_single


def test_read_past_eof_raises():
    c, fs = make_ceft()
    client = fs.client(c[0])
    fs.populate("db", 10)

    def proc():
        yield from client.read("db", 0, 11)

    with pytest.raises(FSError):
        run(c, proc())


@pytest.mark.parametrize("proto", list(WriteProtocol))
def test_write_protocols_store_both_copies(proto):
    c, fs = make_ceft(group=2, protocol=proto)
    client = fs.client(c[0])

    def proc():
        yield from client.create("out")
        yield from client.write("out", 0, 1 * MiB)

    run(c, proc())
    # Let any asynchronous mirroring drain.
    c.sim.run()
    assert sum(s.bytes_stored for s in fs.primary) == 1 * MiB
    stored_on_mirror = sum(
        s.bytes_stored + s.node.disk.bytes_written for s in fs.mirror)
    assert stored_on_mirror >= 1 * MiB


def test_async_client_protocol_acks_before_mirror_done():
    def write_time(proto):
        c, fs = make_ceft(group=2, protocol=proto)
        client = fs.client(c[0])

        def proc():
            yield from client.create("out")
            yield from client.write("out", 0, 8 * MiB)
            return c.sim.now

        t = run(c, proc())
        c.sim.run()
        return t

    t_sync = write_time(WriteProtocol.CLIENT_SYNC)
    t_async = write_time(WriteProtocol.CLIENT_ASYNC)
    assert t_async <= t_sync


def test_server_sync_slower_than_server_async_ack():
    def write_time(proto):
        c, fs = make_ceft(group=2, protocol=proto)
        client = fs.client(c[0])

        def proc():
            yield from client.create("out")
            yield from client.write("out", 0, 8 * MiB)
            return c.sim.now

        t = run(c, proc())
        c.sim.run()
        return t

    assert write_time(WriteProtocol.SERVER_ASYNC) < write_time(WriteProtocol.SERVER_SYNC)


def test_load_collector_flags_stressed_server():
    c, fs = make_ceft(group=2, monitor_load=True, load_period=2.0)
    victim = fs.primary[0].node
    c.sim.process(disk_stressor(victim))
    c.sim.run(until=10.0)
    assert fs.is_hot(PRIMARY, 0)
    assert not fs.is_hot(PRIMARY, 1)
    assert not fs.is_hot(MIRROR, 0)
    fs.stop_monitoring()


def test_hot_spot_reads_rerouted_to_mirror():
    c, fs = make_ceft(group=2, monitor_load=True, load_period=1.0)
    client = fs.client(c[0])
    fs.populate("db", 8 * MiB, mirrored=True)
    victim = fs.primary[0]
    c.sim.process(disk_stressor(victim.node))

    def proc():
        # Wait for detection, then read.
        yield c.sim.timeout(5.0)
        before = victim.bytes_served
        yield from client.read("db", 0, 8 * MiB)
        return victim.bytes_served - before

    served_by_hot = run(c, proc(), limit=4000)
    fs.stop_monitoring()
    assert served_by_hot == 0
    # The mirror of the hot server picked up its share.
    assert fs.mirror[0].bytes_served > 0


def test_skip_hot_disabled_keeps_hot_server_in_path():
    c, fs = make_ceft(group=2, monitor_load=True, load_period=1.0,
                      skip_hot=False)
    client = fs.client(c[0])
    fs.populate("db", 8 * MiB, mirrored=True)
    victim = fs.primary[0]
    c.sim.process(disk_stressor(victim.node))

    def proc():
        yield c.sim.timeout(5.0)
        before = victim.bytes_served
        yield from client.read("db", 0, 8 * MiB)
        return victim.bytes_served - before

    served_by_hot = run(c, proc(), limit=40000)
    fs.stop_monitoring()
    assert served_by_hot > 0


def test_hot_mirror_is_skipped_too():
    """Hot spots can be skipped in either group (multi-node hot spots
    work as long as no mirroring pair is fully hot)."""
    c, fs = make_ceft(group=2, monitor_load=True, load_period=1.0)
    client = fs.client(c[0])
    fs.populate("db", 8 * MiB, mirrored=True)
    victim = fs.mirror[1]
    c.sim.process(disk_stressor(victim.node))

    def proc():
        yield c.sim.timeout(5.0)
        before = victim.bytes_served
        yield from client.read("db", 0, 8 * MiB)
        return victim.bytes_served - before

    served_by_hot = run(c, proc(), limit=4000)
    fs.stop_monitoring()
    assert served_by_hot == 0
    assert fs.primary[1].bytes_served > 0


def test_trace_and_mds_accounting():
    c, fs = make_ceft()
    client = fs.client(c[0])
    fs.populate("db", 1 * MiB)

    def proc():
        yield from client.read("db", 0, 1 * MiB)

    run(c, proc())
    assert len(fs.tracer) == 1
    assert fs.mds.ops_served == 1


def test_truncate_and_unlink():
    c, fs = make_ceft(group=2)
    client = fs.client(c[0])
    fs.populate("db", 1 * MiB, mirrored=True)

    def proc():
        yield from client.read("db", 0, 1 * MiB)
        yield from client.truncate("db")
        assert fs.lookup("db").size == 0
        yield from client.unlink("db")

    run(c, proc())
    assert not fs.exists("db")


# ---------------------------------------------------------------- hot set
def test_recompute_hot_uses_median_of_other_servers():
    """Regression (group_size=2): with four servers and one lone spike,
    a self-inclusive median let the hot server mask itself — 0.9 vs a
    median of 0.5 fails the 2x-median test.  Against the *other*
    servers' median (0.1) it is correctly flagged."""
    c, fs = make_ceft(group=2)
    utils = {
        (PRIMARY, 0): 0.9,
        (PRIMARY, 1): 0.1,
        (MIRROR, 0): 0.1,
        (MIRROR, 1): 0.1,
    }
    hot = fs.collector.recompute_hot(utils)
    assert hot == {(PRIMARY, 0)}


def test_recompute_hot_hysteresis_clears_below_threshold():
    c, fs = make_ceft(group=2)
    fs.collector.hot = {(PRIMARY, 0)}
    # Still warm (above clear_threshold): stays flagged.
    hot = fs.collector.recompute_hot({
        (PRIMARY, 0): 0.6, (PRIMARY, 1): 0.5,
        (MIRROR, 0): 0.5, (MIRROR, 1): 0.5,
    })
    assert hot == {(PRIMARY, 0)}
    # Cooled off: cleared.
    hot = fs.collector.recompute_hot({
        (PRIMARY, 0): 0.2, (PRIMARY, 1): 0.5,
        (MIRROR, 0): 0.5, (MIRROR, 1): 0.5,
    })
    assert hot == set()


def test_recompute_hot_uniformly_busy_cluster_not_flagged():
    """Everyone busy is load, not a hot spot: no server beats twice the
    others' median."""
    c, fs = make_ceft(group=2)
    utils = {k: 0.95 for k in
             [(PRIMARY, 0), (PRIMARY, 1), (MIRROR, 0), (MIRROR, 1)]}
    assert fs.collector.recompute_hot(utils) == set()


def test_recompute_hot_single_server_pair():
    """Degenerate group_size=1: two servers, each compared against the
    other alone."""
    c, fs = make_ceft(group=1)
    hot = fs.collector.recompute_hot({(PRIMARY, 0): 0.9, (MIRROR, 0): 0.1})
    assert hot == {(PRIMARY, 0)}


# ---------------------------------------------------------------- create
def test_duplicate_create_raises_before_any_cost():
    """CEFT uses the same check-then-create helper as PVFS: the second
    create of a path raises FSError and pays no metadata RPC."""
    c, fs = make_ceft(group=2)
    client = fs.client(c[0])

    def proc():
        yield from client.create("dup", size=0, mirrored=True)
        ops_before = fs.mds.ops_served
        with pytest.raises(FSError, match="file exists"):
            yield from client.create("dup")
        assert fs.mds.ops_served == ops_before
        return fs.lookup("dup")

    meta = run(c, proc())
    assert meta.mirrored  # the first create's metadata survived intact


def test_create_mirrored_flag_round_trips():
    c, fs = make_ceft(group=2)
    client = fs.client(c[0])

    def proc():
        m1 = yield from client.create("plain", size=4 * KiB)
        m2 = yield from client.create("both", size=4 * KiB, mirrored=True)
        return m1, m2

    m1, m2 = run(c, proc())
    assert not m1.mirrored
    assert m2.mirrored
