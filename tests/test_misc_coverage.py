"""Targeted tests for corners not covered elsewhere."""

import pytest

from repro.cluster import Cluster, memory_stressor
from repro.cluster.params import MB
from repro.fs.metadata import MD_REQUEST_SIZE, MetadataServer
from repro.fs.pvfs import PVFS


def test_memory_stressor_shrinks_cache():
    c = Cluster(n_nodes=1)
    node = c[0]
    # Fill the cache to capacity first.
    node.cache.insert("f", 0, 2_000 * MB)
    before_pages = node.cache.cached_pages
    before_capacity = node.cache.capacity_pages
    dropped = memory_stressor(node, fraction=0.9)
    assert dropped > 0
    assert node.cache.cached_pages < before_pages
    assert node.cache.capacity_pages == int(before_capacity * 0.1)


def test_memory_stressor_validation():
    c = Cluster(n_nodes=1)
    with pytest.raises(ValueError):
        memory_stressor(c[0], fraction=1.5)


def test_metadata_server_rpc_cost():
    c = Cluster(n_nodes=2)
    fs = PVFS(c[0], [c[1]])
    mds = fs.mds

    def proc():
        yield from mds.rpc(c[1])
        return c.sim.now

    p = c.sim.process(proc())
    c.sim.run_until_complete(p)
    assert p.value > 2 * c.network.params.latency  # two messages
    assert mds.ops_served == 1
    assert c[0].nic.bytes_received == MD_REQUEST_SIZE


def test_disk_params_with_disk_helper():
    from repro.cluster.params import prairiefire_params

    p = prairiefire_params().with_disk(write_batch=1, seek_time=0.001)
    assert p.disk.write_batch == 1
    assert p.disk.seek_time == 0.001
    assert p.disk.read_bandwidth == 26 * MB  # untouched


def test_figure_result_data_roundtrip():
    from repro.core.figures import FigureResult

    r = FigureResult("F0", "t", table="TBL", chart="", data={"x": 1})
    assert r.render() == "TBL"
    r2 = FigureResult("F0", "t", table="TBL", chart="CH")
    assert "CH" in r2.render()
