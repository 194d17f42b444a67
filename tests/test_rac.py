"""Tests for routing algorithm containers (RACs)."""

import json

import pytest

from repro.algorithms.base import CandidateBeacon, ExecutionResult, RoutingAlgorithm
from repro.algorithms.registry import encode_builtin_payload, encode_criteria_payload
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.criteria import widest_with_latency_bound
from repro.core.databases import IngressDatabase
from repro.core.extensions import ExtensionSet
from repro.core.ondemand import OnDemandAlgorithmManager
from repro.core.rac import RACConfig, RoutingAlgorithmContainer
from repro.crypto.hashing import algorithm_hash
from repro.exceptions import RACError

from tests.conftest import make_beacon


def zero_intra(_a, _b):
    return 0.0


def database_with(key_store, beacon_specs):
    """Insert beacons described as (hops, extensions) into a fresh DB."""
    database = IngressDatabase(local_as=100)
    for hops, extensions in beacon_specs:
        beacon = make_beacon(key_store, hops, extensions=extensions)
        database.insert(
            CandidateBeacon(beacon=beacon, ingress_interface=1, received_at_ms=0.0)
        )
    return database


class TestRACConfig:
    def test_validation(self):
        with pytest.raises(RACError):
            RACConfig(rac_id="")
        with pytest.raises(RACError):
            RACConfig(rac_id="x", max_paths_per_interface=0)

    def test_rac_needs_an_algorithm_or_a_manager(self):
        with pytest.raises(RACError):
            RoutingAlgorithmContainer(config=RACConfig(rac_id="x"))

    def test_rac_rejects_both_an_algorithm_and_a_manager(self):
        manager = OnDemandAlgorithmManager(transport=lambda _origin, _id: b"")
        with pytest.raises(RACError):
            RoutingAlgorithmContainer(
                config=RACConfig(rac_id="x"),
                algorithm=KShortestPathAlgorithm(k=1),
                on_demand_manager=manager,
            )


class TestStaticRAC:
    def test_processes_plain_buckets_only(self, key_store):
        database = database_with(
            key_store,
            [
                ([(1, None, 1), (2, 1, 2)], None),
                ([(5, None, 1), (2, 1, 2)], ExtensionSet().with_algorithm("a", "h")),
            ],
        )
        rac = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="1sp"), algorithm=KShortestPathAlgorithm(k=1)
        )
        selections, report = rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        assert report.buckets == 1  # the on-demand bucket is not for this RAC
        assert len(selections) == 1
        assert selections[0].criteria_tag == "1sp"
        assert selections[0].egress_interfaces == [9]

    def test_report_contains_timing_decomposition(self, key_store):
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], None)])
        rac = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="1sp"), algorithm=KShortestPathAlgorithm(k=1)
        )
        _selections, report = rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        assert report.candidates == 1
        assert report.execution_ms >= 0.0
        assert report.ipc_ms >= 0.0
        assert report.total_ms == pytest.approx(
            report.setup_ms + report.ipc_ms + report.execution_ms
        )
        assert report.throughput_pcbs_per_second() >= 0.0

    def test_buckets_split_by_interface_group(self, key_store):
        database = database_with(
            key_store,
            [
                ([(1, None, 1), (2, 1, 2)], ExtensionSet().with_interface_group(0)),
                ([(1, None, 2), (2, 1, 3)], ExtensionSet().with_interface_group(1)),
            ],
        )
        grouped_rac = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="grouped", use_interface_groups=True),
            algorithm=KShortestPathAlgorithm(k=1),
        )
        merged_rac = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="merged", use_interface_groups=False),
            algorithm=KShortestPathAlgorithm(k=1),
        )
        _s, grouped_report = grouped_rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        _s, merged_report = merged_rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        assert grouped_report.buckets == 2
        assert merged_report.buckets == 1
        assert merged_report.candidates == 2

    def test_every_process_call_is_a_full_pass(self, key_store):
        """No result survives a call: an unchanged database is executed
        again, once per bucket, and a stateless algorithm repeats itself."""
        database = database_with(
            key_store,
            [
                ([(1, None, 1), (2, 1, 2)], None),
                ([(1, None, 2), (3, 1, 2)], None),
                ([(5, None, 1), (2, 1, 2)], None),
            ],
        )
        algorithm = KShortestPathAlgorithm(k=5)
        contexts = []
        execute = algorithm.execute
        algorithm.execute = lambda context: contexts.append(context) or execute(context)
        rac = RoutingAlgorithmContainer(config=RACConfig(rac_id="5sp"), algorithm=algorithm)
        passes = [
            rac.process(
                database=database,
                egress_interfaces=(8, 9),
                intra_latency_ms=zero_intra,
                local_as=100,
            )
            for _ in range(2)
        ]
        assert [len(context.candidates) for context in contexts] == [2, 1, 2, 1]
        summaries = [
            (
                [(s.beacon.digest(), s.egress_interfaces) for s in selections],
                (report.buckets, report.candidates, report.selections),
            )
            for selections, report in passes
        ]
        assert summaries[0] == summaries[1]
        assert summaries[0][1] == (2, 3, 6)

    def test_hd_second_pass_over_an_unchanged_bucket_differs(self, key_store):
        """Why an unchanged bucket cannot be skipped: HD remembers what it
        propagated, so the same input selects something else next time."""
        database = database_with(
            key_store,
            [
                ([(1, None, 1), (2, 1, 2)], None),
                ([(1, None, 1), (2, 1, 3), (3, 1, 2)], None),  # shares the origin link
                ([(1, None, 2), (4, 1, 2), (5, 1, 2)], None),  # disjoint from the first
            ],
        )
        rac = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="hd"),
            algorithm=HeuristicDisjointnessAlgorithm(paths_per_interface=1),
        )

        def run():
            selections, _report = rac.process(
                database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
            )
            return [(s.beacon.as_path(), s.egress_interfaces) for s in selections]

        # First pass: the shortest path fills the one-path quota.
        assert run() == [((1, 2), [9])]
        # Second pass, same bucket: that path was served, the quota is free
        # again and goes to the only candidate sharing no link with it.
        assert run() == [((1, 4, 5), [9])]
        # Third pass: what is left overlaps what was propagated.
        assert run() == []

    def test_targets_skipped_when_disabled(self, key_store):
        database = database_with(
            key_store,
            [([(1, None, 1), (2, 1, 2)], ExtensionSet().with_target(100))],
        )
        no_pull = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="no-pull", use_targets=False),
            algorithm=KShortestPathAlgorithm(k=1),
        )
        with_pull = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="with-pull", use_targets=True),
            algorithm=KShortestPathAlgorithm(k=1),
        )
        _s, skipped = no_pull.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        _s, processed = with_pull.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        assert skipped.buckets == 0
        assert processed.buckets == 1

    def test_selection_merges_interfaces_per_beacon(self, key_store):
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], None)])
        rac = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="1sp"), algorithm=KShortestPathAlgorithm(k=1)
        )
        selections, _report = rac.process(
            database=database,
            egress_interfaces=(7, 8, 9),
            intra_latency_ms=zero_intra,
            local_as=100,
        )
        assert len(selections) == 1
        assert sorted(selections[0].egress_interfaces) == [7, 8, 9]


class _Appends(RoutingAlgorithm):
    """Selects every candidate plus ``extra`` (a beacon it was not offered)."""

    name = "appends"

    def __init__(self, extra):
        self.extra = extra

    def execute(self, context):
        result = ExecutionResult()
        for candidate in context.candidates:
            result.add(context.egress_interfaces[0], candidate.beacon)
        result.add(context.egress_interfaces[0], self.extra)
        return result


class _Remembers(RoutingAlgorithm):
    """Stateful: selects the first candidate it ever saw, in every job."""

    name = "remembers"

    def __init__(self):
        self.kept = None

    def execute(self, context):
        if self.kept is None:
            self.kept = context.candidates[0].beacon
        result = ExecutionResult()
        result.add(context.egress_interfaces[0], self.kept)
        return result


class TestUnknownBeacons:
    """A returned beacon that is not among the job's candidates fails the job."""

    @staticmethod
    def run(algorithm, database, use_interface_groups=True):
        rac = RoutingAlgorithmContainer(
            config=RACConfig(rac_id="x", use_interface_groups=use_interface_groups),
            algorithm=algorithm,
        )
        return rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )

    def test_a_beacon_of_another_bucket_of_the_same_database(self, key_store):
        grouped = ExtensionSet().with_interface_group(1)
        database = database_with(
            key_store,
            [
                ([(1, None, 1), (2, 1, 2)], None),
                ([(1, None, 2), (3, 1, 2)], grouped),
                ([(5, None, 1), (2, 1, 2)], None),
            ],
        )
        plain, in_group, other_origin = database.all_beacons()
        # Origin 5's beacon is stored, but in no bucket of origin 1's jobs ...
        selections, report = self.run(_Appends(other_origin.beacon), database)
        assert (report.buckets, report.failed_buckets) == (1, 2)
        # ... and selected twice on one interface, it is listed there once.
        assert [(s.stored, s.egress_interfaces) for s in selections] == [(other_origin, [9])]
        # Merged groups: the grouped beacon is a candidate of the plain
        # bucket's job; origin 5's beacon still is not.
        selections, report = self.run(_Appends(in_group.beacon), database, False)
        assert (report.buckets, report.failed_buckets) == (1, 1)
        assert [s.stored for s in selections] == [plain, in_group]
        assert report.selections == 2

    def test_a_beacon_a_stateful_algorithm_kept_from_an_earlier_job(self, key_store):
        database = database_with(
            key_store,
            [
                ([(1, None, 1), (2, 1, 2)], None),
                ([(1, None, 2), (3, 1, 2)], None),
                ([(5, None, 1), (2, 1, 2)], None),
            ],
        )
        kept, _sibling, _other_origin = database.all_beacons()
        algorithm = _Remembers()
        selections, report = self.run(algorithm, database)
        assert [s.stored for s in selections] == [kept]
        assert (report.buckets, report.failed_buckets) == (1, 1)
        # Once the kept beacon left the database, its own bucket fails too.
        database.remove_matching(lambda stored: stored is kept)
        selections, report = self.run(algorithm, database)
        assert selections == []
        assert (report.buckets, report.failed_buckets) == (0, 2)


class TestOnDemandRAC:
    def _on_demand_rac(self, payloads):
        """Return an on-demand RAC over ``payloads`` and its transport's call log."""
        calls = []

        def transport(origin_as, algorithm_id):
            calls.append((origin_as, algorithm_id))
            return payloads[(origin_as, algorithm_id)]

        return RoutingAlgorithmContainer(
            config=RACConfig(rac_id="on-demand"),
            on_demand_manager=OnDemandAlgorithmManager(transport=transport),
        ), calls

    def _rounds(self, rac, database, rounds):
        return [
            rac.process(
                database=database,
                egress_interfaces=(9,),
                intra_latency_ms=zero_intra,
                local_as=100,
            )[1]
            for _ in range(rounds)
        ]

    def test_fetches_verifies_and_executes(self, key_store):
        payload = encode_criteria_payload(widest_with_latency_bound(50.0))
        payloads = {(1, "widest50"): payload}
        extensions = ExtensionSet().with_algorithm("widest50", algorithm_hash(payload))
        database = database_with(
            key_store,
            [
                ([(1, None, 1), (2, 1, 2)], extensions),
                ([(1, None, 2), (3, 1, 2)], extensions),
            ],
        )
        rac, calls = self._on_demand_rac(payloads)
        selections, report = rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        assert report.buckets == 1
        assert report.failed_buckets == 0
        assert len(selections) >= 1
        assert calls == [(1, "widest50")]

    def test_hash_mismatch_fails_bucket(self, key_store):
        good_payload = encode_builtin_payload("1sp")
        tampered_payload = encode_builtin_payload("5sp")
        payloads = {(1, "algo"): tampered_payload}
        extensions = ExtensionSet().with_algorithm("algo", algorithm_hash(good_payload))
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], extensions)])
        rac, _calls = self._on_demand_rac(payloads)
        selections, report = rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        assert selections == []
        assert report.failed_buckets == 1

    def test_static_buckets_ignored(self, key_store):
        payloads = {}
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], None)])
        rac, _calls = self._on_demand_rac(payloads)
        _selections, report = rac.process(
            database=database, egress_interfaces=(9,), intra_latency_ms=zero_intra, local_as=100
        )
        assert report.buckets == 0

    def test_cache_reused_across_rounds(self, key_store):
        payload = encode_builtin_payload("1sp")
        payloads = {(1, "algo"): payload}
        extensions = ExtensionSet().with_algorithm("algo", algorithm_hash(payload))
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], extensions)])
        rac, calls = self._on_demand_rac(payloads)
        reports = self._rounds(rac, database, 3)
        assert [report.buckets for report in reports] == [1, 1, 1]
        assert calls == [(1, "algo")]

    def test_undecodable_payload_fetched_once_failing_every_round(self, key_store):
        payload = b'{"kind": "no-such-kind"}'
        extensions = ExtensionSet().with_algorithm("algo", algorithm_hash(payload))
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], extensions)])
        rac, calls = self._on_demand_rac({(1, "algo"): payload})
        reports = self._rounds(rac, database, 3)
        assert [report.failed_buckets for report in reports] == [1, 1, 1]
        assert calls == [(1, "algo")]

    def test_malformed_payload_fails_its_bucket_not_the_round(self, key_store):
        # Verifies against its hash, but lacks the criteria spec.
        payload = b'{"kind": "criteria_set"}'
        extensions = ExtensionSet().with_algorithm("algo", algorithm_hash(payload))
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], extensions)])
        rac, _calls = self._on_demand_rac({(1, "algo"): payload})
        (report,) = self._rounds(rac, database, 1)
        assert (report.buckets, report.failed_buckets) == (0, 1)

    def test_payload_naming_an_unknown_metric_fails_its_bucket(self, key_store):
        # ``reliability`` has a name but no extractor: the payload must fail
        # at decode, not abort the round when the bucket is ranked.
        spec = {
            "name": "most-reliable",
            "criteria": [{"metric": "reliability", "objective": "maximize"}],
        }
        payload = json.dumps({"kind": "criteria_set", "spec": spec}).encode("utf-8")
        extensions = ExtensionSet().with_algorithm("algo", algorithm_hash(payload))
        database = database_with(key_store, [([(1, None, 1), (2, 1, 2)], extensions)])
        rac, _calls = self._on_demand_rac({(1, "algo"): payload})
        (report,) = self._rounds(rac, database, 1)
        assert report.failed_buckets == 1
