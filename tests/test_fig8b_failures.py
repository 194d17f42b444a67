"""Failure-injection integration test closing the Figure-8b loop.

Figure 8b argues that a registered path set with tolerable-link-failure
count TLF keeps an AS pair connected under up to TLF link failures (the
min-cut of the set's links is TLF + 1).  This test builds a crafted diamond
topology with two fully link-disjoint routes, registers paths through a
real beaconing simulation, computes the predicted TLF from the registered
segments, and then *injects actual failures*:

* every failure set of size TLF leaves the pair connected, and
* the crafted min-cut of size TLF + 1 disconnects it,

so the analytical prediction and empirical failure injection agree.  A
second test drives the failures through the dynamic-scenario engine and
checks the surviving registered paths directly.
"""

from itertools import combinations

from repro.analysis.disjointness_eval import tolerable_link_failures
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure
from repro.simulation.failures import LinkState
from repro.simulation.scenario import disjointness_scenario, don_scenario
from repro.topology.entities import Relationship
from repro.units import minutes

from tests.conftest import build_topology

SOURCE_AS = 4
ORIGIN_AS = 1


def diamond_topology():
    """1 -(2)- 4 and 1 -(3)- 4: two fully link-disjoint routes."""
    interfaces = {
        1: {1: (47.0, 8.0), 2: (47.0, 8.1)},
        2: {1: (48.0, 9.0), 2: (48.0, 9.1)},
        3: {1: (46.0, 9.0), 2: (46.0, 9.1)},
        4: {1: (47.0, 10.0), 2: (47.0, 10.1)},
    }
    peer = Relationship.PEER
    links = [
        ((1, 1), (2, 1), 10.0, 1000.0, peer),
        ((2, 2), (4, 1), 10.0, 1000.0, peer),
        ((1, 2), (3, 1), 12.0, 1000.0, peer),
        ((3, 2), (4, 2), 12.0, 1000.0, peer),
    ]
    return build_topology(interfaces, links)


def registered_segments(topology, periods=4):
    """Run beaconing and return AS 4's registered segments towards AS 1."""
    scenario = disjointness_scenario(periods=periods, verify_signatures=False)
    result = BeaconingSimulation(topology, scenario).run()
    paths = result.service(SOURCE_AS).path_service.paths_to(ORIGIN_AS)
    assert paths, "beaconing registered no paths for the watched pair"
    return [path.segment for path in paths]


class TestFig8bLoop:
    def test_predicted_tlf_survives_injection_and_breaks_past_it(self):
        topology = diamond_topology()
        segments = registered_segments(topology)

        min_cut = tolerable_link_failures(
            [segment.links() for segment in segments], ORIGIN_AS, SOURCE_AS
        )
        assert min_cut == 2  # two fully disjoint routes were registered
        predicted_tlf = min_cut - 1  # failures the set tolerates by prediction

        path_links = sorted({link for segment in segments for link in segment.links()})

        # Every failure set of the tolerable size keeps the pair connected.
        for failure_set in combinations(path_links, predicted_tlf):
            state = LinkState()
            for link in failure_set:
                state.fail_link(link)
            assert any(state.path_available(s.links()) for s in segments), (
                f"pair disconnected by {len(failure_set)} failures, "
                f"predicted to tolerate {predicted_tlf}: {failure_set}"
            )

        # One more failure — the crafted min cut — disconnects the pair.
        state = LinkState()
        state.fail_link(((1, 1), (2, 1)))  # upper route, first hop
        state.fail_link(((1, 2), (3, 1)))  # lower route, first hop
        assert not any(state.path_available(s.links()) for s in segments)
        assert len(state.failed_links) == min_cut

    def test_dynamic_engine_agrees_with_prediction(self):
        topology = diamond_topology()
        scenario = don_scenario(periods=5, verify_signatures=False)
        upper = ((1, 1), (2, 1))
        lower = ((1, 2), (3, 1))
        # Fail one route after paths exist (tolerated), then the second
        # (past the tolerable count: the pair must disconnect).
        scenario.timeline.add(2.5 * minutes(10), LinkFailure(upper))
        scenario.timeline.add(3.5 * minutes(10), LinkFailure(lower))
        simulation = BeaconingSimulation(topology, scenario)
        simulation.watch_pair(SOURCE_AS, ORIGIN_AS)

        simulation.run_period()  # period 0: propagation reaches AS 4
        simulation.run_period()  # period 1: AS 4 registers both routes
        simulation.run_period()  # period 2 (failure of the upper route fires)
        assert simulation.usable_path_count(SOURCE_AS, ORIGIN_AS) >= 1

        simulation.run_period()  # period 3 (failure of the lower route fires)
        assert simulation.usable_path_count(SOURCE_AS, ORIGIN_AS) == 0
        simulation.run_period()  # period 4: nothing can reconverge

        result_records = simulation.convergence.records
        assert result_records and not result_records[-1].recovered
