"""Unit tests for PVFS."""

import pytest

from repro.cluster import Cluster
from repro.cluster.params import KiB, MB, MiB
from repro.fs.interface import FSError
from repro.fs.pvfs import PVFS
from repro.trace import TraceCollector


def make_pvfs(n_servers=4, n_extra=1, stripe=64 * KiB, **kw):
    """Cluster with n_servers data nodes + n_extra client/MDS nodes."""
    c = Cluster(n_nodes=n_servers + n_extra)
    fs = PVFS(c[0], list(c)[n_extra:n_extra + n_servers], stripe_size=stripe,
              tracer=TraceCollector(), **kw)
    return c, fs


def run(c, gen):
    p = c.sim.process(gen)
    c.sim.run_until_complete(p)
    if p.failed:
        raise p.value
    return p.value


def test_requires_data_servers():
    c = Cluster(n_nodes=1)
    with pytest.raises(ValueError):
        PVFS(c[0], [])


def test_open_costs_metadata_rpc():
    c, fs = make_pvfs()
    client = fs.client(c[0])

    fs.populate("db", 10 * MB)

    def proc():
        yield from client.open("db")
        return c.sim.now

    t = run(c, proc())
    assert t > 0
    assert fs.mds.ops_served == 1


def test_open_missing_file_raises():
    c, fs = make_pvfs()
    client = fs.client(c[0])

    def proc():
        yield from client.open("ghost")

    with pytest.raises(FSError):
        run(c, proc())


def test_read_spreads_over_all_servers():
    c, fs = make_pvfs(n_servers=4)
    client = fs.client(c[0])
    fs.populate("db", 8 * MiB)

    def proc():
        yield from client.read("db", 0, 8 * MiB)

    run(c, proc())
    for server in fs.servers:
        assert server.bytes_served == 2 * MiB
        assert server.node.disk.bytes_read == 2 * MiB


def test_small_read_touches_one_server():
    c, fs = make_pvfs(n_servers=4)
    client = fs.client(c[0])
    fs.populate("db", 10 * MB)

    def proc():
        yield from client.read("db", 0, 1000)

    run(c, proc())
    served = [s.bytes_served for s in fs.servers]
    assert served == [1000, 0, 0, 0]


def test_parallel_read_faster_than_single_server():
    def read_time(n_servers):
        c, fs = make_pvfs(n_servers=n_servers)
        client = fs.client(c[0])
        fs.populate("db", 50 * MB)

        def proc():
            yield from client.read("db", 0, 50 * MB)
            return c.sim.now

        return run(c, proc())

    t1 = read_time(1)
    t4 = read_time(4)
    # 4 disks at 26 MB/s aggregate ~104 MB/s, under the 112 MB/s NIC cap.
    assert t4 < t1 / 2.5


def test_client_nic_caps_aggregate_bandwidth():
    c, fs = make_pvfs(n_servers=8)
    client = fs.client(c[0])
    size = 100 * MB
    fs.populate("db", size)

    def proc():
        yield from client.read("db", 0, size)
        return c.sim.now

    t = run(c, proc())
    rate = size / t
    # 8 disks could deliver 208 MB/s but the client NIC is 112 MB/s.
    assert rate <= 112 * MB
    assert rate > 80 * MB


def test_read_past_eof_raises():
    c, fs = make_pvfs()
    client = fs.client(c[0])
    fs.populate("db", 100)

    def proc():
        yield from client.read("db", 0, 200)

    with pytest.raises(FSError):
        run(c, proc())


def test_write_stripes_to_servers():
    c, fs = make_pvfs(n_servers=2)
    client = fs.client(c[0])

    def proc():
        yield from client.create("out")
        yield from client.write("out", 0, 1 * MiB)

    run(c, proc())
    assert fs.lookup("out").size == 1 * MiB
    for server in fs.servers:
        assert server.bytes_stored == 512 * KiB
        assert server.node.disk.bytes_written == 512 * KiB


def test_create_existing_raises():
    c, fs = make_pvfs()
    fs.populate("db", 1)
    client = fs.client(c[0])

    def proc():
        yield from client.create("db")

    with pytest.raises(FSError):
        run(c, proc())


def test_zero_byte_read_is_free_of_data_traffic():
    c, fs = make_pvfs()
    client = fs.client(c[0])
    fs.populate("db", 100)

    def proc():
        yield from client.read("db", 0, 0)

    run(c, proc())
    assert all(s.bytes_served == 0 for s in fs.servers)


def test_server_cache_accelerates_second_read():
    c, fs = make_pvfs(n_servers=2)
    client = fs.client(c[0])
    fs.populate("db", 4 * MiB)

    def proc():
        yield from client.read("db", 0, 4 * MiB)
        t1 = c.sim.now
        yield from client.read("db", 0, 4 * MiB)
        return t1, c.sim.now - t1

    t_cold, t_warm = run(c, proc())
    assert t_warm < t_cold
    disk_after = sum(s.node.disk.bytes_read for s in fs.servers)
    assert disk_after == 4 * MiB  # second read was all cache hits


def test_trace_collects_client_level_ops():
    c, fs = make_pvfs()
    client = fs.client(c[0])
    fs.populate("db", 1 * MiB)

    def proc():
        yield from client.read("db", 0, 1 * MiB)

    run(c, proc())
    assert len(fs.tracer) == 1
    rec = fs.tracer.records[0]
    assert rec.op == "read" and rec.size == 1 * MiB


def test_concurrent_clients_share_servers():
    c, fs = make_pvfs(n_servers=2, n_extra=3)
    fs.populate("db", 20 * MB)
    times = {}

    def reader(node, tag):
        client = fs.client(node)
        yield from client.read("db", 0, 20 * MB)
        times[tag] = c.sim.now

    c.sim.process(reader(c[0], "a"))
    c.sim.process(reader(c[1], "b"))
    c.sim.run()
    # Both complete; server disks bound the aggregate so each takes
    # roughly twice the solo time.
    solo = 20 * MB / (2 * 26 * MB)
    assert times["a"] > 1.5 * solo
    assert times["b"] > 1.5 * solo


def test_truncate_and_unlink():
    c, fs = make_pvfs(n_servers=2)
    client = fs.client(c[0])
    fs.populate("db", 1 * MiB)

    def proc():
        yield from client.read("db", 0, 1 * MiB)
        yield from client.truncate("db")
        assert fs.lookup("db").size == 0
        yield from client.unlink("db")

    run(c, proc())
    assert not fs.exists("db")
    assert fs.mds.ops_served >= 3  # open + truncate + unlink


def test_unlink_missing_raises():
    c, fs = make_pvfs()
    client = fs.client(c[0])

    def proc():
        yield from client.unlink("ghost")

    with pytest.raises(FSError):
        run(c, proc())
