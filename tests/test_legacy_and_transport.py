"""Tests for legacy SCION ASes and the transport implementations.

A legacy AS is a configuration of the one control service
(``ScenarioConfig.legacy_ases``): one static RAC from
``legacy_scion_spec`` tagged ``"legacy"``.  These tests drive it through
that configuration.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms.shortest_path import LEGACY_PATH_COUNT
from repro.core.messages import PCBMessage
from repro.exceptions import SimulationError, UnknownASError, UnknownAlgorithmError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.engine import EventScheduler
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import (
    ScenarioConfig,
    disjointness_scenario,
    don_scenario,
)

from tests.conftest import (
    NullTransport,
    line_topology,
    make_beacon,
    terminated_segments,
)

ROOT = Path(__file__).resolve().parents[1]

#: Prints the order the legacy RAC selects candidates whose (hop count,
#: latency) keys all tie: eight paths over four AS paths.
_TIED_SELECTION = """
from repro.algorithms.base import CandidateBeacon
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import ScenarioConfig
from tests.conftest import line_topology, make_beacon

simulation = BeaconingSimulation(
    line_topology(3), ScenarioConfig(algorithms=(), legacy_ases=(1, 2, 3))
)
service = simulation.services[2]
for mid in (30, 10, 40, 20):
    for out in (2, 1):
        beacon = make_beacon(simulation.key_store, [(1, None, out), (mid, 1, 2)])
        service.ingress.database.insert(CandidateBeacon(beacon, ingress_interface=1))
(rac,) = service.racs
selections, _report = rac.process(
    database=service.ingress.database,
    egress_interfaces=service.view.interface_ids(),
    intra_latency_ms=service.view.intra_latency_ms,
    local_as=2,
)
print([(s.beacon.as_path(), s.beacon.digest()[:16]) for s in selections])
"""


def legacy_simulation(num_ases, periods=4):
    """A line of ``num_ases`` ASes that all run legacy SCION."""
    return BeaconingSimulation(
        line_topology(num_ases),
        ScenarioConfig(
            algorithms=(),
            periods=periods,
            verify_signatures=False,
            legacy_ases=tuple(range(1, num_ases + 1)),
        ),
    )


class TestLegacyControlService:
    def test_beaconing_end_to_end(self):
        result = legacy_simulation(4).run()
        paths = result.service(4).path_service.paths_to(1)
        assert paths
        assert paths[0].criteria_tags == ("legacy",)
        assert paths[0].segment.as_path() == (1, 2, 3, 4)
        assert [rac.config.rac_id for rac in result.service(2).racs] == ["legacy"]

    def test_selects_at_most_the_legacy_path_count(self):
        simulation = legacy_simulation(3)
        service = simulation.services[2]
        for mid in range(10, 10 + LEGACY_PATH_COUNT + 5):
            beacon = make_beacon(simulation.key_store, [(1, None, 2), (mid, 1, 2)])
            service.ingress.receive(beacon, on_interface=1, now_ms=0.0)
        (rac,) = service.racs
        selections, _report = rac.process(
            database=service.ingress.database,
            egress_interfaces=service.view.interface_ids(),
            intra_latency_ms=service.view.intra_latency_ms,
            local_as=2,
        )
        assert len(selections) == LEGACY_PATH_COUNT
        assert [s.beacon.as_path() for s in selections[:2]] == [(1, 10), (1, 11)]
        assert all(s.egress_interfaces == [1, 2] for s in selections)

    def test_selection_order_is_the_rankings_under_any_hash_seed(self):
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

    def test_no_on_demand_payloads(self):
        service = legacy_simulation(3).services[1]
        with pytest.raises(UnknownAlgorithmError):
            service.serve_algorithm("anything")

    def test_originates_without_the_interface_group_extension(self):
        simulation = legacy_simulation(3)
        beacons = simulation.services[2].originate(now_ms=0.0)
        assert [b.entry.egress_interface for b in beacons] == [1, 2]
        assert all(b.extensions.interface_group is None for b in beacons)

    def test_propagation_does_not_resend_same_interface(self):
        simulation = legacy_simulation(3)
        for service in simulation.services.values():
            service.originate(now_ms=0.0)
        simulation.scheduler.run_until(100.0)
        collector = simulation.collector
        before = collector.total_sent
        simulation.services[2].run_round(now_ms=100.0)
        first_round = collector.total_sent - before
        simulation.services[2].run_round(now_ms=200.0)
        second_round = collector.total_sent - before - first_round
        assert first_round > 0
        assert second_round == 0  # nothing new to propagate

    def test_egress_stores_expire_with_the_beacons(self):
        """The sent-on-interface records and the terminated segments of a
        beacon go when the beacon does: past one validity period (36 beacon
        periods) both stores are bounded by the live candidates instead of
        growing every round."""
        scenario = don_scenario(periods=80, verify_signatures=False)
        scenario.legacy_ases = (2,)
        legacy = BeaconingSimulation(line_topology(4), scenario).run().service(2)
        live = len(legacy.ingress.database)
        assert 0 < len(legacy.egress.database) <= live
        assert 0 < len(terminated_segments(legacy)) <= live

    def test_legacy_transit_drops_on_demand_beacons(self):
        """The one behaviour a legacy AS changed when it became a
        configuration: its RAC is static, static RACs skip algorithm-
        extension buckets, so pull-based disjointness beacons do not cross
        it (the former legacy class forwarded them and AS 1 got one result)."""
        scenario = disjointness_scenario()
        scenario.legacy_ases = (2,)
        simulation = BeaconingSimulation(line_topology(4), scenario)
        simulation.add_pull_disjointness(origin_as=1, target_as=4)
        result = simulation.run()
        assert result.service(1).pull_results == []
        # They reached the legacy AS; it kept them and sent them nowhere.
        buckets = result.service(2).ingress.database.bucket_keys()
        assert any(algorithm_id is not None for _o, _g, _t, algorithm_id in buckets)


class TestNullTransport:
    def test_records_messages(self, key_store):
        transport = NullTransport()
        beacon = make_beacon(key_store, [(1, None, 1)])
        transport.send_message(1, 1, PCBMessage(beacon))
        transport.return_beacon_to_origin(2, beacon)
        assert len(transport.sent) == 1
        assert len(transport.returned) == 1

    def test_fetch_from_configured_table(self):
        transport = NullTransport(payloads={(1, "a"): b"payload"})
        assert transport.fetch_algorithm(9, 1, "a") == b"payload"
        with pytest.raises(SimulationError):
            transport.fetch_algorithm(9, 1, "missing")


class TestFabricFailFast:
    """Sends, returns and fetches aimed at an unregistered AS raise."""

    @staticmethod
    def _empty_fabric():
        return SimulatedTransport(topology=line_topology(2), scheduler=EventScheduler())

    def test_unknown_destination_raises(self, key_store):
        transport = self._empty_fabric()
        beacon = make_beacon(key_store, [(1, None, 2)])
        with pytest.raises(UnknownASError):
            transport.send_message(1, 2, PCBMessage(beacon))

    def test_unknown_origin_for_return(self, key_store):
        transport = self._empty_fabric()
        terminated = make_beacon(key_store, [(1, None, 2), (2, 1, None)])
        with pytest.raises(UnknownASError):
            transport.return_beacon_to_origin(2, terminated)

    def test_fetch_algorithm_requires_registered_service(self):
        transport = self._empty_fabric()
        with pytest.raises(UnknownASError):
            transport.fetch_algorithm(2, 1, "algo")
