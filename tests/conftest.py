"""Shared fixtures for the IREC reproduction test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.beacon import ASEntry, Beacon, BeaconBuilder, BeaconHeader
from repro.core.control_service import ControlServiceConfig, IrecControlService
from repro.core.extensions import ExtensionSet
from repro.core.interface_groups import InterfaceGroupingPolicy
from repro.core.local_view import LocalTopologyView
from repro.core.messages import ControlMessage, PCBMessage
from repro.core.staticinfo import StaticInfo
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer
from repro.exceptions import SimulationError
from repro.simulation.engine import EventScheduler
from repro.simulation.events import LinkFailure, LinkRecovery, TimedEvent
from repro.simulation.network import SimulatedTransport
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.geo import GeoCoordinate
from repro.topology.graph import Topology


def small_test_config(seed: int = 7) -> TopologyConfig:
    """Return a deliberately small configuration for fast unit tests."""
    return TopologyConfig(
        num_ases=12,
        num_core=3,
        num_transit=4,
        core_parallel_links=1,
        transit_provider_count=2,
        stub_provider_count=2,
        peering_probability=0.3,
        max_pops_core=3,
        max_pops_transit=2,
        max_pops_stub=1,
        seed=seed,
    )


def down_paths_to(service, terminal_as: int) -> list:
    """Every path ``service`` registered that *ends* at ``terminal_as``, in
    store order: the destination-keyed view of down-segment announcements."""
    return [path for path in service.all_paths() if path.segment.last_as == terminal_as]


def slice_batches(services: Dict[int, IrecControlService], size: int) -> None:
    """Hand every service its inbox ``size`` messages at a time, within the
    tick; ``1`` is per-message delivery, the reference the fabric's one
    batch per tick must equal."""
    for service in services.values():
        handle = service.on_message_batch

        def sliced(entries, now_ms, handle=handle):
            for start in range(0, len(entries), size):
                handle(entries[start : start + size], now_ms)

        service.on_message_batch = sliced


def random_link_failures(
    topology: Topology,
    count: int,
    rng: random.Random,
    start_ms: float,
    spacing_ms: float,
    recovery_after_ms: Optional[float] = None,
) -> List[TimedEvent]:
    """Generate ``count`` failures of distinct random links of ``topology``.

    Failures fire at ``start_ms, start_ms + spacing_ms, ...``; with
    ``recovery_after_ms`` each link recovers that long after its failure.
    A seeded ``rng`` makes the schedule reproducible (the golden traces pin
    it).
    """
    pool = list(topology.link_ids())
    events: List[TimedEvent] = []
    for index, link in enumerate(rng.sample(pool, k=min(count, len(pool)))):
        fail_at = start_ms + index * spacing_ms
        events.append(TimedEvent(time_ms=fail_at, event=LinkFailure(link_id=link)))
        if recovery_after_ms is not None:
            events.append(
                TimedEvent(time_ms=fail_at + recovery_after_ms, event=LinkRecovery(link_id=link))
            )
    return events


def is_connected(topology: Topology) -> bool:
    """Whether the AS-level graph of ``topology`` is connected."""
    as_ids = topology.as_ids()
    if not as_ids:
        return True
    seen = {as_ids[0]}
    frontier = [as_ids[0]]
    while frontier:
        for neighbor in topology.neighbors(frontier.pop()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(as_ids)


def query_at(frontend, query, now_ms: float):
    """Serve ``query`` from ``frontend`` as if its clock read ``now_ms``."""
    clock, frontend.clock = frontend.clock, lambda: now_ms
    try:
        return frontend.query(query)
    finally:
        frontend.clock = clock


def paths_at(frontend, origin_as: int, now_ms: float):
    """Serve all paths to ``origin_as`` from ``frontend`` as if its clock read ``now_ms``."""
    clock, frontend.clock = frontend.clock, lambda: now_ms
    try:
        return frontend.paths(origin_as)
    finally:
        frontend.clock = clock


def run_all(scheduler: EventScheduler, max_events: int = 1_000_000) -> int:
    """Process every pending event of ``scheduler``; return how many ran.

    Raises:
        SimulationError: Past ``max_events`` events, which usually means a
            runaway event loop.
    """
    processed = 0
    queue = scheduler._queue
    while queue:
        if processed >= max_events:
            raise SimulationError(f"exceeded the limit of {max_events} events")
        processed += scheduler.run_until(queue[0][0])
    return processed


@dataclass
class NullTransport:
    """A transport that records outgoing messages but delivers nothing.

    The recording fake for unit tests that exercise a single AS in
    isolation; ``payloads`` is the table ``fetch_algorithm`` serves.
    """

    sent: List[Tuple[int, int, Beacon]] = field(default_factory=list, init=False)
    returned: List[Tuple[int, Beacon]] = field(default_factory=list, init=False)
    revoked: List[Tuple[int, int, object]] = field(default_factory=list, init=False)
    messages: List[Tuple[int, int, ControlMessage]] = field(default_factory=list, init=False)
    payloads: Dict[Tuple[int, str], bytes] = field(default_factory=dict)

    def send_message(
        self, sender_as: int, egress_interface: int, message: ControlMessage
    ) -> None:
        """Record the typed message without delivering it."""
        self.messages.append((sender_as, egress_interface, message))
        if isinstance(message, PCBMessage):
            self.sent.append((sender_as, egress_interface, message.beacon))
        elif message.kind == "revocation":
            self.revoked.append((sender_as, egress_interface, message))

    def return_beacon_to_origin(self, sender_as: int, beacon: Beacon) -> None:
        """Record the return without delivering it."""
        self.returned.append((sender_as, beacon))

    def fetch_algorithm(self, requester_as: int, origin_as: int, algorithm_id: str) -> bytes:
        """Serve a payload from the locally configured table."""
        try:
            return self.payloads[(origin_as, algorithm_id)]
        except KeyError:
            raise SimulationError(
                f"no payload configured for ({origin_as}, {algorithm_id!r})"
            ) from None


class ForeignKeyStore(KeyStore):
    """A key store that holds, for every AS, the key of AS ``as_id + 1000``.

    What it signs fails verification against an honest :class:`KeyStore`
    and the reverse: a forger signing with another AS's key, or the keys
    after a rollover.
    """

    def key_for(self, as_id: int):
        return super().key_for(int(as_id) + 1000)


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
