"""An AS shares nothing with another AS but the messages they exchange.

Each AS runs its RACs over its own ingress database and keeps its own
egress gateway, path service and revocation state; ASes interact only
through the beacons, revocations and registrations the transport carries.
Two checks hold that property, each on every pinned scenario of
``tests/test_golden_trace.py``:

* **Differential.**  A transport that hands every receiver
  ``pickle.loads(pickle.dumps(message))`` instead of the sent object
  reproduces every pinned digest, and every period's round reports, the
  fabric's ledgers and each AS's databases and revocation counters equal
  those of the run that delivers the sent objects.  A receiver that relied
  on sharing an object with its sender (an identity test, a mutation the
  sender later sees) would change one of them.
* **Layout.**  Walking the object graph from one AS's control service,
  stopping at the transport, the simulation, the key store and the
  topology, reaches none of another AS's private state.
"""

import functools
import gc
import hashlib
import pickle
import types

import pytest

from repro.simulation.beaconing import BeaconingSimulation

from tests.test_golden_trace import (
    FAMILY_DIGESTS,
    GENERATED_MIXED_DIGESTS,
    GOLDEN_DIGEST,
    MIXED_DIGEST,
    MIXED_SEGMENTS_DIGEST,
    run_family_scenario,
    run_generated_mixed,
    run_mixed_scenario,
    run_scenario,
)

# Every pinned scenario by name: a callable that runs it through
# ``factory=`` and returns its digested text.
SCENARIOS = {
    "golden": run_scenario,
    "mixed": run_mixed_scenario,
    **{family: functools.partial(run_family_scenario, family) for family in FAMILY_DIGESTS},
    **{
        f"generated-{case}": functools.partial(run_generated_mixed, case)
        for case in GENERATED_MIXED_DIGESTS
    },
}

# How many ASes each scenario ends with: churn_growth grows two.
FINAL_AS_COUNTS = {
    "golden": 5,
    "mixed": 5,
    "flap": 5,
    "gray": 5,
    "byzantine": 5,
    "churn_growth": 7,
    **{f"generated-{case}": 13 for case in GENERATED_MIXED_DIGESTS},
}


class RecordingFactory:
    """Builds one simulation and keeps it with the round reports of every
    period it runs.  With ``copying`` its transport delivers every message
    as a deserialized copy of what its sender sent, and counts the copies."""

    def __init__(self, copying):
        self.copying = copying
        self.copies = 0
        self.simulation = None
        self.periods = []

    def __call__(self, topology, scenario):
        simulation = BeaconingSimulation(topology, scenario)
        run_period = simulation.run_period

        def run_period_and_keep():
            reports = run_period()
            self.periods.append(
                [
                    (
                        report.as_id,
                        report.now_ms,
                        report.propagated,
                        report.registered,
                        [
                            (rac.rac_id, rac.buckets, rac.candidates, rac.selections,
                             rac.failed_buckets)
                            for rac in report.rac_reports
                        ],
                    )
                    for report in reports
                ]
            )
            return reports

        simulation.run_period = run_period_and_keep
        if self.copying:
            transport = simulation.transport
            send = transport.send_message

            def send_copy(sender_as, egress_interface, message):
                self.copies += 1
                send(sender_as, egress_interface, pickle.loads(pickle.dumps(message)))

            transport.send_message = send_copy
        self.simulation = simulation
        return simulation

    def observables(self):
        """What the run left that its digest does not read."""
        simulation = self.simulation
        collector = simulation.collector
        ases = {}
        for as_id, service in simulation.services.items():
            revocations = service.revocations
            ases[as_id] = (
                len(service.ingress.database),
                len(service.egress.database),
                sorted(
                    (path.segment.digest(), path.criteria_tags)
                    for path in service.path_service.all_paths()
                ),
                dict(revocations.applied_at),
                (
                    revocations.received,
                    revocations.duplicates,
                    revocations.originated,
                    revocations.forwarded,
                    revocations.rejected_invalid,
                    revocations.reoriginated,
                ),
            )
        return {
            "periods": self.periods,
            "periods_run": simulation.periods_run,
            "now_ms": simulation.now_ms,
            "sent": dict(collector.sent),
            "dropped": dict(collector.dropped),
            "gray_dropped": dict(collector.gray_dropped),
            "revocation_batches": (
                collector.revocation_batches,
                collector.revocation_batch_elements,
                collector.revocation_batch_max,
                collector.revocation_multi_batches,
            ),
            "ases": ases,
        }


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestDeliveredCopiesReproduceEveryDigest:
    def test_golden(self):
        factory = RecordingFactory(copying=True)
        assert _digest(run_scenario(factory=factory)) == GOLDEN_DIGEST
        assert factory.copies > 0

    def test_mixed(self):
        factory = RecordingFactory(copying=True)
        trace, segments = run_mixed_scenario(factory=factory)
        assert _digest(trace) == MIXED_DIGEST
        assert _digest(segments) == MIXED_SEGMENTS_DIGEST
        assert factory.copies > 0

    @pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
    def test_family(self, family):
        factory = RecordingFactory(copying=True)
        assert _digest(run_family_scenario(family, factory=factory)) == FAMILY_DIGESTS[family]
        assert factory.copies > 0

    @pytest.mark.parametrize("case", sorted(GENERATED_MIXED_DIGESTS))
    def test_generated_mixed(self, case):
        factory = RecordingFactory(copying=True)
        text = run_generated_mixed(case, factory=factory)
        assert _digest(text) == GENERATED_MIXED_DIGESTS[case]
        assert factory.copies > 0


class TestDeliveredCopiesLeaveWhatDigestsDoNotRead:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_reports_ledgers_and_per_as_state_equal_the_shared_run(self, scenario):
        shared = RecordingFactory(copying=False)
        copied = RecordingFactory(copying=True)
        assert SCENARIOS[scenario](factory=copied) == SCENARIOS[scenario](factory=shared)
        assert copied.copies == shared.simulation.collector.control_messages_total() > 0
        observed = shared.observables()
        assert len(observed["periods"]) == observed["periods_run"] > 0
        assert len(observed["ases"]) == FINAL_AS_COUNTS[scenario]
        assert copied.observables() == observed



def _referents(obj):
    """What ``obj`` refers to.  A function is followed into its closure
    and defaults but not its module globals; classes and modules are not
    state and are not entered."""
    if isinstance(obj, (type, types.ModuleType, types.BuiltinFunctionType)):
        return ()
    if isinstance(obj, types.FunctionType):
        return [
            *(obj.__closure__ or ()),
            *(obj.__defaults__ or ()),
            *(obj.__kwdefaults__ or {}).values(),
        ]
    return gc.get_referents(obj)


def reachable(root, stops):
    """The ids of every object reachable from ``root`` without entering an
    object whose id is in ``stops``."""
    seen = set()
    pending = [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or id(obj) in stops:
            continue
        seen.add(id(obj))
        pending.extend(_referents(obj))
    return seen


def private_state(service):
    """``{id: label}`` of the objects one AS keeps for itself."""
    parts = {
        "service": service,
        "ingress gateway": service.ingress,
        "ingress database": service.ingress.database,
        "egress gateway": service.egress,
        "egress database": service.egress.database,
        "path service": service.path_service,
        "query frontend": service.query_frontend,
        "builder": service.builder,
        "revocation state": service.revocations,
        "algorithm repository": service.repository,
        **{f"RAC {rac.config.rac_id}": rac for rac in service.racs},
    }
    return {id(part): f"AS {service.as_id} {label}" for label, part in parts.items()}


def _stops(simulation):
    """Where the walk stops: what every AS is handed by the simulation."""
    return {
        id(simulation),
        id(simulation.transport),
        id(simulation.key_store),
        id(simulation.topology),
    }


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def finished(request):
    """``(scenario, simulation)`` after the scenario's run."""
    factory = RecordingFactory(copying=False)
    SCENARIOS[request.param](factory=factory)
    return request.param, factory.simulation


class TestAServiceReachesNoOtherAS:
    def test_the_walk_covers_every_as_and_its_own_state(self, finished):
        scenario, simulation = finished
        services = simulation.services
        assert sorted(services) == list(simulation.topology.as_ids())
        assert len(services) == FINAL_AS_COUNTS[scenario]
        stops = _stops(simulation)
        for service in services.values():
            assert set(private_state(service)) <= reachable(service, stops)

    def test_no_service_reaches_another_ases_state(self, finished):
        _scenario, simulation = finished
        services = simulation.services
        stops = _stops(simulation)
        for as_id, service in services.items():
            reached = reachable(service, stops)
            foreign = {}
            for other_as, other in services.items():
                if other_as != as_id:
                    foreign.update(private_state(other))
            assert not reached & set(foreign), (
                f"AS {as_id} reaches {sorted(foreign[key] for key in reached & set(foreign))}"
            )

    def test_through_the_transport_every_as_is_reachable(self, finished):
        """The walk finds a bridge when there is one: the transport holds
        every service, so not stopping there reaches them all."""
        _scenario, simulation = finished
        transport = simulation.transport
        stops = _stops(simulation) - {id(transport)}
        reached = reachable(next(iter(simulation.services.values())), stops)
        assert {id(service) for service in simulation.services.values()} <= reached
