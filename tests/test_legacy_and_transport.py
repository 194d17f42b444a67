"""Tests for the legacy SCION control service and the transport implementations."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms.base import CandidateBeacon
from repro.core.local_view import LocalTopologyView
from repro.core.transport import LoopbackTransport, NullTransport
from repro.exceptions import SimulationError, UnknownASError, UnknownAlgorithmError
from repro.scion.legacy import LegacyControlService
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import don_scenario

from tests.conftest import line_topology, make_beacon, pcb_message

ROOT = Path(__file__).resolve().parents[1]

#: Prints the order ``select_paths`` returns for candidates whose
#: (hop count, latency) keys all tie: eight paths over four AS paths.
_TIED_SELECTION = """
from repro.algorithms.base import CandidateBeacon
from repro.core.local_view import LocalTopologyView
from repro.core.transport import NullTransport
from repro.crypto.keys import KeyStore
from repro.scion.legacy import LegacyControlService
from tests.conftest import line_topology, make_beacon

key_store = KeyStore()
service = LegacyControlService(
    view=LocalTopologyView.from_topology(line_topology(3), 2),
    key_store=key_store,
    transport=NullTransport(),
)
candidates = [
    CandidateBeacon(make_beacon(key_store, [(1, None, out), (mid, 1, 2)]), ingress_interface=1)
    for mid in (30, 10, 40, 20)
    for out in (2, 1)
]
selected, _report = service.select_paths(candidates)
print([(c.beacon.as_path(), c.beacon.digest()[:16]) for c in selected])
"""


def legacy_deployment(topology, key_store, paths_per_origin=20):
    transport = LoopbackTransport(topology=topology)
    services = {}
    for as_info in topology:
        view = LocalTopologyView.from_topology(topology, as_info.as_id)
        service = LegacyControlService(
            view=view,
            key_store=key_store,
            transport=transport,
            paths_per_origin=paths_per_origin,
        )
        services[as_info.as_id] = service
        transport.register(service)
    return services, transport


class TestLegacyControlService:
    def test_beaconing_end_to_end(self, key_store):
        topology = line_topology(4)
        services, _transport = legacy_deployment(topology, key_store)
        for round_index in range(4):
            now = round_index * 1000.0
            for service in services.values():
                service.originate(now_ms=now)
            for service in services.values():
                service.run_round(now_ms=now + 500.0)
        paths = services[4].path_service.paths_to(1)
        assert paths
        assert paths[0].criteria_tags == ("legacy",)
        assert paths[0].segment.as_path() == (1, 2, 3, 4)

    def test_select_paths_limits_to_configured_count(self, key_store):
        topology = line_topology(3)
        services, _transport = legacy_deployment(topology, key_store, paths_per_origin=2)
        service = services[2]
        stored = [
            CandidateBeacon(
                beacon=make_beacon(key_store, [(1, None, interface), (9 + interface, 1, 2)]),
                ingress_interface=1,
                received_at_ms=0.0,
            )
            for interface in range(1, 6)
        ]
        selected, report = service.select_paths(stored)
        assert len(selected) == 2
        assert [c.beacon.as_path() for c in selected] == [(1, 10), (1, 11)]
        assert report.candidates == 5
        assert report.selections == 2
        assert report.execution_ms > 0.0
        assert report.throughput_pcbs_per_second() > 0.0

    def test_select_paths_order_is_the_rankings_under_any_hash_seed(self):
        """Ties on (hop count, latency) are broken by AS path, then digest —
        the algorithm's ranking, not the iteration order of a ``set``."""
        orders = [
            subprocess.run(
                [sys.executable, "-c", _TIED_SELECTION],
                check=True,
                timeout=120,
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(ROOT))),
                },
            ).stdout
            for seed in ("0", "1")
        ]
        assert orders[0] == orders[1]
        paths = [as_path for as_path, _digest in ast.literal_eval(orders[0])]
        assert paths == sorted(paths) and len(paths) == 8

    def test_select_paths_empty(self, key_store):
        topology = line_topology(3)
        services, _transport = legacy_deployment(topology, key_store)
        selected, report = services[2].select_paths([])
        assert selected == []
        assert report.total_ms == 0.0

    def test_no_on_demand_support(self, key_store):
        topology = line_topology(3)
        services, _transport = legacy_deployment(topology, key_store)
        with pytest.raises(UnknownAlgorithmError):
            services[1].serve_algorithm("anything")
        # Returned beacons are silently dropped.
        beacon = make_beacon(key_store, [(1, None, 2), (2, 1, None)])
        services[1].receive_returned_beacon(beacon, now_ms=0.0)

    def test_propagation_does_not_resend_same_interface(self, key_store):
        topology = line_topology(3)
        services, transport = legacy_deployment(topology, key_store)
        for service in services.values():
            service.originate(now_ms=0.0)
        before = transport.sent_count
        services[2].run_round(now_ms=1.0)
        first_round = transport.sent_count - before
        services[2].run_round(now_ms=2.0)
        second_round = transport.sent_count - before - first_round
        assert first_round > 0
        assert second_round == 0  # nothing new to propagate

    def test_propagation_dedup_store_expires_with_the_beacons(self):
        """The sent-on-interface record of a beacon goes when the beacon
        does: past one validity period (36 beacon periods) the store is
        bounded by the live candidates instead of growing every round."""
        scenario = don_scenario(periods=80, verify_signatures=False)
        scenario.legacy_ases = (2,)
        legacy = BeaconingSimulation(line_topology(4), scenario).run().service(2)
        assert 0 < len(legacy._propagated) <= len(legacy.ingress.database)


class TestNullTransport:
    def test_records_messages(self, key_store):
        transport = NullTransport()
        beacon = make_beacon(key_store, [(1, None, 1)])
        transport.send_message(1, 1, pcb_message(1, beacon))
        transport.return_beacon_to_origin(2, beacon)
        assert len(transport.sent) == 1
        assert len(transport.returned) == 1

    def test_fetch_from_configured_table(self):
        transport = NullTransport(payloads={(1, "a"): b"payload"})
        assert transport.fetch_algorithm(9, 1, "a") == b"payload"
        with pytest.raises(SimulationError):
            transport.fetch_algorithm(9, 1, "missing")


class TestLoopbackTransport:
    def test_unknown_destination_raises(self, key_store):
        topology = line_topology(2)
        transport = LoopbackTransport(topology=topology)
        beacon = make_beacon(key_store, [(1, None, 2)])
        with pytest.raises(UnknownASError):
            transport.send_message(1, 2, pcb_message(1, beacon))

    def test_unknown_origin_for_return(self, key_store):
        topology = line_topology(2)
        transport = LoopbackTransport(topology=topology)
        terminated = make_beacon(key_store, [(1, None, 2), (2, 1, None)])
        with pytest.raises(UnknownASError):
            transport.return_beacon_to_origin(2, terminated)

    def test_fetch_algorithm_requires_registered_service(self):
        topology = line_topology(2)
        transport = LoopbackTransport(topology=topology)
        with pytest.raises(UnknownASError):
            transport.fetch_algorithm(2, 1, "algo")
