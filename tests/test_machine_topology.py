"""Unit tests for the interconnect topologies."""

import pytest

from repro.machine import (
    BusTopology,
    ButterflyTopology,
    MachineParams,
    UniformTopology,
    make_topology,
)


def params(n=16, topology="butterfly", arity=4):
    return MachineParams(
        n_processors=n, topology=topology, switch_arity=arity
    )


def test_factory_dispatch():
    assert isinstance(make_topology(params(topology="butterfly")),
                      ButterflyTopology)
    assert isinstance(make_topology(params(topology="bus")), BusTopology)
    assert isinstance(make_topology(params(topology="uniform")),
                      UniformTopology)


def test_uniform_has_no_resources():
    topo = UniformTopology(params(topology="uniform"))
    assert topo.route(0, 5) == []
    assert topo.all_resources() == []


def test_bus_shares_one_resource():
    topo = BusTopology(params(topology="bus"))
    r1 = topo.route(0, 5)
    r2 = topo.route(3, 7)
    assert r1 == r2 == [topo.bus]
    assert topo.route(2, 2) == []


def test_butterfly_stage_count():
    assert ButterflyTopology(params(16, arity=4)).stages == 2
    assert ButterflyTopology(params(16, arity=2)).stages == 4
    assert ButterflyTopology(params(5, arity=4)).stages == 2
    assert ButterflyTopology(params(2, arity=4)).stages == 1


def test_butterfly_local_route_empty():
    topo = ButterflyTopology(params())
    assert topo.route(3, 3) == []


def test_butterfly_route_has_one_port_per_stage():
    topo = ButterflyTopology(params(16, arity=4))
    route = topo.route(0, 15)
    assert len(route) == topo.stages
    assert len(set(id(r) for r in route)) == len(route)


def test_butterfly_routes_to_same_destination_converge():
    """All routes to one destination share the final-stage port."""
    topo = ButterflyTopology(params(16, arity=4))
    finals = {id(topo.route(src, 9)[-1]) for src in range(16) if src != 9}
    assert len(finals) == 1


def test_butterfly_routes_from_same_source_diverge_at_entry():
    """Different destinations from one source use distinct first hops
    whenever their leading digit differs."""
    topo = ButterflyTopology(params(16, arity=4))
    first_0 = topo.route(5, 0)[0]
    first_15 = topo.route(5, 15)[0]
    assert first_0 is not first_15


def test_butterfly_route_cached_and_deterministic():
    topo = ButterflyTopology(params())
    assert topo.route(1, 2) is topo.route(1, 2)


def test_butterfly_out_of_range_rejected():
    topo = ButterflyTopology(params(4))
    with pytest.raises(ValueError):
        topo.route(0, 4)
    with pytest.raises(ValueError):
        topo.route(-1, 0)


def test_butterfly_arity_validation():
    with pytest.raises(ValueError):
        ButterflyTopology(params(16, arity=1))


def test_contention_arises_on_shared_port():
    """Two transfers into the same module contend at its final port."""
    topo = ButterflyTopology(params(16, arity=4))
    port = topo.route(0, 9)[-1]
    port.occupy(0, 1000)
    start, _ = topo.route(1, 9)[-1].occupy(0, 1000)
    assert start == 1000


def test_describe_strings():
    for name in ("butterfly", "bus", "uniform"):
        topo = make_topology(params(topology=name))
        assert isinstance(topo.describe(), str) and topo.describe()
