"""Shared fixtures for the IREC reproduction test suite."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.beacon import ASEntry, Beacon, BeaconBuilder, BeaconHeader
from repro.core.control_service import ControlServiceConfig, IrecControlService
from repro.core.extensions import ExtensionSet
from repro.core.interface_groups import InterfaceGroupingPolicy
from repro.core.local_view import LocalTopologyView
from repro.core.messages import PCBMessage
from repro.core.staticinfo import StaticInfo
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer
from repro.simulation.engine import EventScheduler
from repro.simulation.network import SimulatedTransport
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.generator import generate_topology, small_test_config
from repro.topology.geo import GeoCoordinate
from repro.topology.graph import Topology


@pytest.fixture
def key_store() -> KeyStore:
    """A fresh key store for one test."""
    return KeyStore()


@pytest.fixture
def small_topology() -> Topology:
    """A small generated topology (12 ASes), deterministic."""
    return generate_topology(small_test_config())


# ----------------------------------------------------------------------
# hand-built topologies
# ----------------------------------------------------------------------
def build_topology(
    interfaces: Dict[int, Dict[int, Tuple[float, float]]],
    links: Sequence[Tuple[Tuple[int, int], Tuple[int, int], float, float, Relationship]],
) -> Topology:
    """Build a topology from explicit interface locations and links.

    Args:
        interfaces: ``{as_id: {interface_id: (lat, lon)}}``.
        links: Each entry is ``(endpoint_a, endpoint_b, latency_ms,
            bandwidth_mbps, relationship)`` with endpoints as
            ``(as_id, interface_id)``.
    """
    topology = Topology()
    for as_id, ifaces in interfaces.items():
        info = ASInfo(as_id=as_id)
        for interface_id, (lat, lon) in ifaces.items():
            info.add_interface(
                Interface(
                    as_id=as_id,
                    interface_id=interface_id,
                    location=GeoCoordinate(lat, lon),
                )
            )
        topology.add_as(info)
    for endpoint_a, endpoint_b, latency, bandwidth, relationship in links:
        topology.add_link(
            Link(
                interface_a=endpoint_a,
                interface_b=endpoint_b,
                latency_ms=latency,
                bandwidth_mbps=bandwidth,
                relationship=relationship,
            )
        )
    return topology


def line_topology(num_ases: int = 4, latency_ms: float = 10.0, bandwidth_mbps: float = 1000.0) -> Topology:
    """A simple chain 1 - 2 - ... - n, two interfaces per interior AS."""
    interfaces: Dict[int, Dict[int, Tuple[float, float]]] = {}
    for as_id in range(1, num_ases + 1):
        interfaces[as_id] = {1: (10.0, float(as_id)), 2: (10.0, float(as_id) + 0.5)}
    links = []
    for as_id in range(1, num_ases):
        links.append(
            ((as_id, 2), (as_id + 1, 1), latency_ms, bandwidth_mbps, Relationship.CUSTOMER_PROVIDER)
        )
    return build_topology(interfaces, links)


@pytest.fixture
def chain_topology() -> Topology:
    """A four-AS chain topology."""
    return line_topology(4)


def figure1_topology() -> Topology:
    """The multi-criteria example topology of the paper's Figure 1.

    AS 1 (source) reaches AS 3 (destination) over three paths:

    * 1-2-3: 20 ms, 100 Mbit/s (shortest / lowest latency),
    * 1-4-5-6-3: 40 ms, 10 000 Mbit/s (highest bandwidth), and
    * 1-4-5-3: 30 ms, 1 000 Mbit/s (highest bandwidth within 30 ms).
    """
    interfaces = {
        1: {1: (47.0, 8.0), 2: (47.0, 8.1)},
        2: {1: (48.0, 9.0), 2: (48.0, 9.1)},
        3: {1: (49.0, 10.0), 2: (49.0, 10.1), 3: (49.0, 10.2)},
        4: {1: (46.0, 8.0), 2: (46.0, 8.1), 3: (46.0, 8.2)},
        5: {1: (45.0, 9.0), 2: (45.0, 9.1), 3: (45.0, 9.2)},
        6: {1: (44.0, 10.0), 2: (44.0, 10.1)},
    }
    peer = Relationship.PEER
    links = [
        ((1, 1), (2, 1), 10.0, 100.0, peer),
        ((2, 2), (3, 1), 10.0, 100.0, peer),
        ((1, 2), (4, 1), 10.0, 10_000.0, peer),
        ((4, 2), (5, 1), 10.0, 10_000.0, peer),
        ((5, 2), (6, 1), 10.0, 10_000.0, peer),
        ((6, 2), (3, 2), 10.0, 10_000.0, peer),
        ((5, 3), (3, 3), 10.0, 1_000.0, peer),
    ]
    return build_topology(interfaces, links)


@pytest.fixture
def multi_criteria_topology() -> Topology:
    """The Figure-1 style topology with three distinct optimal paths."""
    return figure1_topology()


# ----------------------------------------------------------------------
# multi-AS deployments on the message fabric
# ----------------------------------------------------------------------
def build_services(
    topology: Topology,
    key_store: KeyStore,
    verify_signatures: bool = False,
    config: Optional[ControlServiceConfig] = None,
    grouping_policy: Optional[InterfaceGroupingPolicy] = None,
    racs: Optional[Dict[str, Callable[[], object]]] = None,
    **transport_kwargs,
) -> Tuple[EventScheduler, SimulatedTransport, Dict[int, IrecControlService]]:
    """Wire one IREC control service per AS over the scheduler-driven fabric.

    Messages travel with link latency plus the fabric's processing delay,
    so a test advances the scheduler (``run_until`` / ``run_all``) to
    deliver them.  ``config`` overrides ``verify_signatures``; ``racs``
    maps static RAC ids to algorithm factories installed at every AS;
    ``transport_kwargs`` go to :class:`SimulatedTransport`.
    """
    scheduler = EventScheduler()
    transport = SimulatedTransport(topology=topology, scheduler=scheduler, **transport_kwargs)
    services = {}
    for as_info in topology:
        service = IrecControlService(
            view=LocalTopologyView.from_topology(topology, as_info.as_id),
            key_store=key_store,
            transport=transport,
            grouping_policy=grouping_policy,
            config=config or ControlServiceConfig(verify_signatures=verify_signatures),
        )
        for rac_id, factory in (racs or {}).items():
            service.add_static_rac(rac_id=rac_id, algorithm=factory())
        services[as_info.as_id] = service
        transport.register(service)
    return scheduler, transport, services


# ----------------------------------------------------------------------
# beacon construction helpers
# ----------------------------------------------------------------------
def make_beacon(
    key_store: KeyStore,
    hops: Sequence[Tuple[int, Optional[int], Optional[int]]],
    link_latencies: Optional[Sequence[float]] = None,
    link_bandwidths: Optional[Sequence[float]] = None,
    intra_latencies: Optional[Sequence[float]] = None,
    created_at_ms: float = 0.0,
    extensions: Optional[ExtensionSet] = None,
    validity_ms: float = 6.0 * 3600.0 * 1000.0,
) -> Beacon:
    """Build a signed beacon from an explicit hop description.

    Args:
        key_store: Key store used for signing every hop.
        hops: Sequence of ``(as_id, ingress_interface, egress_interface)``;
            the first hop's ingress must be ``None``.
        link_latencies: Latency of each hop's egress link (default 10 ms).
        link_bandwidths: Bandwidth of each hop's egress link (default 1000).
        intra_latencies: Intra-AS latency of each hop (default 0).
        created_at_ms: Beacon creation time.
        extensions: Optional extension set stamped by the origin.
        validity_ms: Beacon lifetime.
    """
    if not hops:
        raise ValueError("a beacon needs at least one hop")
    count = len(hops)
    link_latencies = list(link_latencies or [10.0] * count)
    link_bandwidths = list(link_bandwidths or [1000.0] * count)
    intra_latencies = list(intra_latencies or [0.0] * count)

    origin_as, origin_in, origin_out = hops[0]
    if origin_in is not None:
        raise ValueError("the origin hop must not have an ingress interface")
    builder = BeaconBuilder(as_id=origin_as, signer=Signer(as_id=origin_as, key_store=key_store))
    beacon = builder.originate(
        egress_interface=origin_out,
        created_at_ms=created_at_ms,
        static_info=StaticInfo(
            link_latency_ms=link_latencies[0],
            link_bandwidth_mbps=link_bandwidths[0],
        ),
        extensions=extensions,
        validity_ms=validity_ms,
    )
    for index, (as_id, ingress, egress) in enumerate(hops[1:], start=1):
        hop_builder = BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))
        static_info = StaticInfo(
            intra_latency_ms=intra_latencies[index],
            link_latency_ms=link_latencies[index] if egress is not None else 0.0,
            link_bandwidth_mbps=link_bandwidths[index] if egress is not None else None,
        )
        if egress is None:
            beacon = hop_builder.terminate(
                beacon, ingress_interface=ingress, static_info=static_info
            )
        else:
            beacon = hop_builder.extend(
                beacon,
                ingress_interface=ingress,
                egress_interface=egress,
                static_info=static_info,
            )
    return beacon


def rebuild_chain(header: BeaconHeader, entries: Sequence[ASEntry]) -> Beacon:
    """Return a fresh chain of ``entries`` under ``header``, one new beacon per entry.

    How a test builds a tampered or a cold copy of a beacon: the beacons
    are constructed directly, so nothing is checked or signed, and none of
    them holds a derived value (the header and entries passed in keep
    their own memos).
    """
    beacon = None
    for entry in entries:
        beacon = Beacon(header, entry, beacon)
    return beacon


def cold_twin(beacon: Beacon) -> Beacon:
    """Return ``beacon`` rebuilt from copies of its header and entries: nothing derived."""
    return rebuild_chain(replace(beacon.header), [replace(entry) for entry in beacon.entries])


def terminated_segments(service: IrecControlService) -> List[Beacon]:
    """The segments an AS's egress gateway terminated and its ingress records keep."""
    records = service.ingress.database.all_beacons()
    return [stored._segment for stored in records if stored._segment is not None]


def pcb_message(sender_as: int, beacon: Beacon) -> PCBMessage:
    """Frame ``beacon`` the way a sending control service does."""
    return PCBMessage(origin_as=sender_as, sequence=1, created_at_ms=0.0, beacon=beacon)


@pytest.fixture
def beacon_factory(key_store):
    """Expose :func:`make_beacon` bound to the test's key store."""

    def factory(hops, **kwargs):
        return make_beacon(key_store, hops, **kwargs)

    return factory
