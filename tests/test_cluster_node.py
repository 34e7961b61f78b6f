"""Tests for node assembly, cluster topology, and stressors."""

import pytest

from repro.sim import Simulator, Timeout
from repro.cluster import Cluster, disk_stressor, cpu_stressor
from repro.cluster.params import GB, KiB, MB, MiB, NodeParams, prairiefire_params


def test_cluster_builds_named_nodes():
    c = Cluster(n_nodes=4)
    assert len(c) == 4
    assert c[0].name == "node00"
    assert c.node("node03") is c[3]
    assert list(c) == c.nodes


def test_cluster_requires_one_node():
    with pytest.raises(ValueError):
        Cluster(n_nodes=0)


def test_prairiefire_defaults():
    p = prairiefire_params()
    assert p.cpu.cores == 2
    assert p.disk.read_bandwidth == 26 * MB
    assert p.disk.write_bandwidth == 32 * MB
    assert p.memory.ram == 2 * GB
    assert p.network.bandwidth == 112 * MB


def test_with_disk_override():
    p = prairiefire_params().with_disk(read_bandwidth=50 * MB)
    assert p.disk.read_bandwidth == 50 * MB
    assert p.disk.write_bandwidth == 32 * MB  # untouched


def test_node_send_and_compute():
    c = Cluster(n_nodes=2)
    sim = c.sim

    def proc():
        yield from c[0].send(c[1], 1 * MB)
        yield from c[0].compute(0.5)
        return sim.now

    p = sim.process(proc())
    sim.run_until_complete(p)
    assert p.value > 0.5


def test_disk_stressor_saturates_disk():
    c = Cluster(n_nodes=1)
    sim = c.sim
    node = c[0]
    sim.process(disk_stressor(node))
    sim.run(until=30.0)
    # Stressor writes at near the sequential write rate.
    assert node.disk.bytes_written > 0.7 * 32 * MB * 30
    # The CPUs stay nearly idle (paper: ~95% idle).
    assert node.cpu.utilization() < 0.10


def test_disk_stressor_truncates_at_limit(monkeypatch):
    c = Cluster(n_nodes=1)
    sim = c.sim
    node = c[0]
    # Tiny limit so the truncate branch triggers quickly.
    monkeypatch.setattr("repro.cluster.stress._STRESSOR_LIMIT", 10 * MiB)
    sim.process(disk_stressor(node))
    sim.run(until=5.0)
    assert node.disk.bytes_written > 10 * MiB  # wrapped at least once


def test_cpu_stressor_loads_cpu():
    c = Cluster(n_nodes=1)
    sim = c.sim
    node = c[0]
    sim.process(cpu_stressor(node, tasks=2))
    sim.run(until=10.0)
    assert node.cpu.utilization() > 0.9
