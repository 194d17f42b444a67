"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.disjointness_eval import tolerable_link_failures
from repro.core.algebra import PathVector, pareto_frontier
from repro.core.beacon import BeaconBuilder
from repro.core.criteria import BANDWIDTH, LATENCY
from repro.core.databases import EgressDatabase
from repro.core.sandbox import MeteredEvaluator, validate_restricted_source
from repro.core.staticinfo import StaticInfo
from repro.crypto.hashing import algorithm_hash
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.simulation.events import (
    ScenarioTimeline,
    flapping_links,
    gray_failures,
    growth_churn,
)
from repro.topology.geo import GeoCoordinate, great_circle_km

from tests.conftest import line_topology

# Shared strategies ----------------------------------------------------------
latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
coordinates = st.builds(GeoCoordinate, latitude=latitudes, longitude=longitudes)

positive_latencies = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False)
bandwidths = st.floats(min_value=0.001, max_value=1_000_000.0, allow_nan=False)


class TestGeoProperties:
    @given(a=coordinates, b=coordinates)
    def test_distance_symmetry_and_nonnegativity(self, a, b):
        forward = great_circle_km(a, b)
        backward = great_circle_km(b, a)
        assert forward >= 0.0
        assert math.isclose(forward, backward, rel_tol=1e-9, abs_tol=1e-6)

    @given(a=coordinates, b=coordinates, c=coordinates)
    def test_triangle_inequality(self, a, b, c):
        direct = great_circle_km(a, c)
        detour = great_circle_km(a, b) + great_circle_km(b, c)
        assert direct <= detour + 1e-6


class TestAlgebraProperties:
    @given(
        values=st.lists(
            st.tuples(positive_latencies, bandwidths), min_size=1, max_size=12
        )
    )
    def test_pareto_frontier_is_non_dominated_and_non_empty(self, values):
        labelled = [
            (index, PathVector(metrics=(LATENCY, BANDWIDTH), values=(latency, bandwidth)))
            for index, (latency, bandwidth) in enumerate(values)
        ]
        frontier = pareto_frontier(labelled)
        assert frontier
        frontier_vectors = [vector for _label, vector in frontier]
        all_vectors = [vector for _label, vector in labelled]
        for vector in frontier_vectors:
            assert not any(
                other.dominates(vector) for other in all_vectors if other is not vector
            )


class TestBeaconProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        hop_latencies=st.lists(positive_latencies, min_size=1, max_size=8),
        hop_bandwidths=st.lists(bandwidths, min_size=1, max_size=8),
    )
    def test_metrics_accumulate_correctly_and_signatures_verify(
        self, hop_latencies, hop_bandwidths
    ):
        count = min(len(hop_latencies), len(hop_bandwidths))
        hop_latencies = hop_latencies[:count]
        hop_bandwidths = hop_bandwidths[:count]
        key_store = KeyStore()
        builder = BeaconBuilder(as_id=1, signer=Signer(as_id=1, key_store=key_store))
        beacon = builder.originate(
            egress_interface=1,
            created_at_ms=0.0,
            static_info=StaticInfo(
                link_latency_ms=hop_latencies[0], link_bandwidth_mbps=hop_bandwidths[0]
            ),
        )
        for index in range(1, count):
            as_id = index + 1
            hop_builder = BeaconBuilder(
                as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store)
            )
            beacon = hop_builder.extend(
                beacon,
                ingress_interface=1,
                egress_interface=2,
                static_info=StaticInfo(
                    link_latency_ms=hop_latencies[index],
                    link_bandwidth_mbps=hop_bandwidths[index],
                ),
            )
        assert beacon.hop_count == count
        assert beacon.total_latency_ms() <= sum(hop_latencies) + 1e-6
        assert math.isclose(
            beacon.total_latency_ms(), sum(hop_latencies), rel_tol=1e-9, abs_tol=1e-6
        )
        assert math.isclose(
            beacon.bottleneck_bandwidth_mbps(), min(hop_bandwidths), rel_tol=1e-9
        )
        beacon.verify_suffix(Verifier(key_store=key_store), first_entry=0)
        # The AS path never contains duplicates (loop freedom).
        path = beacon.as_path()
        assert len(path) == len(set(path))


class TestSandboxProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        latency=positive_latencies,
        bandwidth=bandwidths,
        hops=st.integers(min_value=1, max_value=20),
    )
    def test_evaluator_matches_python_semantics(self, latency, bandwidth, hops):
        source = "latency_ms * 2 + hop_count - min(bandwidth_mbps, 100)"
        evaluator = MeteredEvaluator(tree=validate_restricted_source(source))
        variables = {
            "latency_ms": latency,
            "bandwidth_mbps": bandwidth,
            "hop_count": float(hops),
        }
        expected = latency * 2 + hops - min(bandwidth, 100)
        assert math.isclose(evaluator.evaluate(variables), expected, rel_tol=1e-9, abs_tol=1e-9)


class TestCDFProperties:
    @given(samples=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=500))
    def test_cdf_is_monotone_and_bounded(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        quantiles = [cdf.quantile(step / 20) for step in range(21)]
        assert quantiles == sorted(quantiles)
        assert quantiles[0] == min(samples)
        assert quantiles[-1] == max(samples)
    @given(samples=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100))
    def test_quantiles_within_sample_range(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        assert min(samples) <= cdf.median <= max(samples)


class TestHashAndDedupProperties:
    @given(payload=st.binary(min_size=0, max_size=512))
    def test_hash_stability(self, payload):
        assert algorithm_hash(payload) == algorithm_hash(payload)

    @given(
        interfaces=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=30)
    )
    def test_egress_database_never_returns_duplicates(self, interfaces):
        database = EgressDatabase()
        seen = set()
        for chunk_start in range(0, len(interfaces), 5):
            chunk = interfaces[chunk_start:chunk_start + 5]
            fresh = database.filter_new_interfaces("digest", chunk, expires_at_ms=1.0)
            assert not (set(fresh) & seen)
            seen.update(fresh)
        assert set(database._records["digest"].egress_interfaces) == seen


class TestTLFProperties:
    @given(
        path_count=st.integers(min_value=1, max_value=6),
    )
    def test_tlf_of_disjoint_parallel_paths_equals_path_count(self, path_count):
        paths = []
        for index in range(path_count):
            intermediate = 100 + index
            paths.append(
                [((1, index + 1), (intermediate, 1)), ((intermediate, 2), (2, index + 1))]
            )
        assert tolerable_link_failures(paths, 1, 2) == path_count

    @given(path_count=st.integers(min_value=2, max_value=6))
    def test_tlf_bounded_by_shared_first_hop(self, path_count):
        shared = ((1, 1), (50, 1))
        paths = []
        for index in range(path_count):
            intermediate = 100 + index
            paths.append(
                [shared, ((50, index + 2), (intermediate, 1)), ((intermediate, 2), (2, index + 1))]
            )
        assert tolerable_link_failures(paths, 1, 2) == 1


class TestAdversarialGeneratorProperties:
    """PR 7: seeded event generators are pure functions of their seed."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_generators_are_seed_deterministic(self, seed):
        """Same seed ⇒ identical event times and trace labels."""
        topology = line_topology(6)

        def schedule():
            events = []
            events += flapping_links(
                topology,
                count=2,
                rng=random.Random(seed),
                start_ms=1_000.0,
                loss_rate=0.2,
            )
            events += gray_failures(
                topology,
                count=2,
                rng=random.Random(seed + 1),
                at_ms=2_000.0,
                drop_rate=0.5,
                duration_ms=500.0,
            )
            events += growth_churn(
                topology,
                count=2,
                rng=random.Random(seed + 2),
                start_ms=3_000.0,
                spacing_ms=100.0,
            )
            return [(timed.time_ms, timed.trace_label()) for timed in events]

        assert schedule() == schedule()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_generated_timelines_always_validate(self, seed):
        """Whatever the seed, generated events target only real elements."""
        topology = line_topology(5)
        timeline = ScenarioTimeline()
        timeline.extend(
            flapping_links(
                topology, count=1, rng=random.Random(seed), start_ms=500.0
            )
        )
        timeline.extend(
            gray_failures(
                topology,
                count=1,
                rng=random.Random(seed),
                at_ms=1_500.0,
                duration_ms=200.0,
            )
        )
        timeline.extend(
            growth_churn(
                topology,
                count=1,
                rng=random.Random(seed),
                start_ms=2_500.0,
                spacing_ms=100.0,
            )
        )
        timeline.validate(topology)
