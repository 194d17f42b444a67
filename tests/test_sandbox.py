"""Tests for sandboxed execution of on-demand algorithm payloads."""

import pytest

from repro.algorithms.base import CandidateBeacon, ExecutionContext
from repro.core.sandbox import (
    DEFAULT_STEP_BUDGET,
    MAX_PAYLOAD_BYTES,
    MeteredEvaluator,
    RestrictedPythonAlgorithm,
    SandboxRuntime,
    validate_restricted_source,
)
from repro.exceptions import SandboxResourceError, SandboxViolationError

from tests.conftest import make_beacon


def context_for(candidates, egress_interfaces=(1,), limit=20):
    return ExecutionContext(
        local_as=999,
        candidates=tuple(candidates),
        egress_interfaces=tuple(egress_interfaces),
        max_paths_per_interface=limit,
        intra_latency_ms=lambda a, b: 0.0,
    )


class TestValidation:
    def test_valid_expression(self):
        validate_restricted_source("latency_ms + 2 * hop_count")

    def test_calls_limited_to_allow_list(self):
        validate_restricted_source("min(latency_ms, 10)")
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("open('/etc/passwd')")

    def test_imports_rejected(self):
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("__import__('os').system('true')")

    def test_attribute_access_rejected(self):
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("latency_ms.__class__")

    def test_statements_rejected(self):
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("x = 1")

    def test_lambda_and_comprehension_rejected(self):
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("(lambda: 1)()")
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("[x for x in (1, 2)]")

    def test_keyword_arguments_rejected(self):
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("round(latency_ms, ndigits=2)")

    def test_oversized_payload_rejected(self):
        source = "1 + " * (MAX_PAYLOAD_BYTES // 4) + "1"
        with pytest.raises(SandboxViolationError):
            validate_restricted_source(source)

    def test_long_string_constant_rejected(self):
        with pytest.raises(SandboxViolationError):
            validate_restricted_source(f"len({'x' * 300!r})")

    def test_syntax_error_rejected(self):
        with pytest.raises(SandboxViolationError):
            validate_restricted_source("latency_ms +")


class TestMeteredEvaluator:
    def evaluate(self, source, variables=None, budget=DEFAULT_STEP_BUDGET):
        tree = validate_restricted_source(source)
        return MeteredEvaluator(tree=tree, step_budget=budget).evaluate(variables or {})

    def test_arithmetic(self):
        assert self.evaluate("1 + 2 * 3") == 7.0
        assert self.evaluate("2 ** 5") == 32.0
        assert self.evaluate("7 % 3") == 1.0
        assert self.evaluate("7 // 2") == 3.0
        assert self.evaluate("-5 + +2") == -3.0

    def test_comparisons_and_conditional(self):
        assert self.evaluate("10 if 3 < 5 else 20") == 10.0
        assert self.evaluate("10 if 3 >= 5 else 20") == 20.0
        assert self.evaluate("1 if 1 <= 1 <= 2 else 0") == 1.0

    def test_boolean_operators(self):
        assert self.evaluate("1 if (1 < 2 and 3 < 4) else 0") == 1.0
        assert self.evaluate("1 if (1 > 2 or 3 < 4) else 0") == 1.0
        assert self.evaluate("0 if not (1 < 2) else 1") == 1.0

    def test_variables(self):
        assert self.evaluate("latency_ms * 2", {"latency_ms": 21.0}) == 42.0

    def test_unknown_variable(self):
        with pytest.raises(SandboxViolationError):
            self.evaluate("unknown_name")

    def test_builtin_calls(self):
        assert self.evaluate("min(3, 1, 2)") == 1.0
        assert self.evaluate("max(3, 1, 2)") == 3.0
        assert self.evaluate("abs(0 - 5)") == 5.0
        assert self.evaluate("len((1, 2, 3))") == 3.0

    def test_step_budget_enforced(self):
        with pytest.raises(SandboxResourceError):
            self.evaluate("1 + " * 50 + "1", budget=10)

    def test_huge_exponent_rejected(self):
        with pytest.raises(SandboxResourceError):
            self.evaluate("2 ** 1000")


class TestRestrictedPythonAlgorithm:
    def test_scores_and_selects(self, key_store):
        fast = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], link_latencies=[5.0, 5.0])
        slow = make_beacon(key_store, [(1, None, 1), (3, 1, 2)], link_latencies=[50.0, 50.0])
        candidates = [CandidateBeacon(beacon=b, ingress_interface=1) for b in (slow, fast)]
        algorithm = RestrictedPythonAlgorithm(source="latency_ms", paths_per_interface=1)
        result = algorithm.execute(context_for(candidates))
        assert result.beacons_for(1)[0].digest() == fast.digest()

    def test_constraints_via_infinite_score(self, key_store):
        ok = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], link_latencies=[5.0, 5.0])
        too_slow = make_beacon(key_store, [(1, None, 1), (3, 1, 2)], link_latencies=[50.0, 50.0])
        candidates = [CandidateBeacon(beacon=b, ingress_interface=1) for b in (ok, too_slow)]
        algorithm = RestrictedPythonAlgorithm(
            source="latency_ms if latency_ms <= 30 else inf", paths_per_interface=5
        )
        selected = algorithm.execute(context_for(candidates)).beacons_for(1)
        assert len(selected) == 1
        assert selected[0].digest() == ok.digest()

    def test_invalid_source_rejected_at_construction(self):
        with pytest.raises(SandboxViolationError):
            RestrictedPythonAlgorithm(source="__import__('os')")

    def test_bandwidth_objective(self, key_store):
        narrow = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], link_bandwidths=[10.0, 10.0])
        wide = make_beacon(key_store, [(1, None, 1), (3, 1, 2)], link_bandwidths=[900.0, 900.0])
        candidates = [CandidateBeacon(beacon=b, ingress_interface=1) for b in (narrow, wide)]
        algorithm = RestrictedPythonAlgorithm(source="0 - bandwidth_mbps", paths_per_interface=1)
        assert algorithm.execute(context_for(candidates)).beacons_for(1)[0].digest() == wide.digest()

    def test_one_evaluation_per_candidate_and_interface(self, key_store):
        """The payload runs once per pair it scores -- not once to admit and
        once more to rank -- and once per candidate when it names neither
        interface-dependent variable."""
        beacons = [
            make_beacon(key_store, [(1, None, 1), (as_id, 1, 2)], link_latencies=[5.0, as_id])
            for as_id in (2, 3, 4)
        ]
        candidates = [CandidateBeacon(beacon=b, ingress_interface=1) for b in beacons]
        context = context_for(candidates, egress_interfaces=(1, 2, 3, 4))
        for source, expected in (
            ("latency_ms + intra_latency_ms", 3 * 4),
            ("latency_ms + egress_interface", 3 * 4),
            ("latency_ms if hop_count < 9 else inf", 3),
        ):
            algorithm = RestrictedPythonAlgorithm(source=source, paths_per_interface=2)
            calls = []
            evaluate = algorithm._evaluator.evaluate
            algorithm._evaluator.evaluate = lambda variables: calls.append(1) or evaluate(variables)
            result = algorithm.execute(context)
            assert len(calls) == expected, source
            assert {i: len(result.beacons_for(i)) for i in (1, 2, 3, 4)} == dict.fromkeys(
                (1, 2, 3, 4), 2
            )

    @pytest.mark.parametrize("source", ["latency_ms", "latency_ms + intra_latency_ms"])
    def test_budgets_still_abort_the_execution(self, key_store, source):
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        context = context_for([CandidateBeacon(beacon=beacon, ingress_interface=1)])
        over_steps = RestrictedPythonAlgorithm(source="1 + " * 50 + source, step_budget=10)
        with pytest.raises(SandboxResourceError, match="step budget"):
            over_steps.execute(context)
        # The budget is per evaluation: a payload within it may run any
        # number of times in one execution.
        within = RestrictedPythonAlgorithm(source=source, step_budget=10, paths_per_interface=20)
        result = within.execute(context_for([CandidateBeacon(beacon, 1)] * 30))
        assert sum(len(beacons) for beacons in result.selections.values()) == 20
        past_deadline = RestrictedPythonAlgorithm(source=source, time_budget_ms=-1.0)
        with pytest.raises(SandboxResourceError, match="time budget"):
            past_deadline.execute(context)

    def test_rejection_threshold_excludes_per_interface(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        context = context_for(
            [CandidateBeacon(beacon=beacon, ingress_interface=1)], egress_interfaces=(1, 2)
        )
        algorithm = RestrictedPythonAlgorithm(source="1 if egress_interface < 2 else inf")
        result = algorithm.execute(context)
        assert len(result.beacons_for(1)) == 1 and result.beacons_for(2) == []
        assert 2 not in result.selections


class TestSandboxRuntime:
    def test_setup_recreates_restricted_python(self):
        runtime = SandboxRuntime()
        algorithm = RestrictedPythonAlgorithm(source="latency_ms")
        prepared, elapsed = runtime.setup(algorithm)
        assert prepared is not algorithm
        assert isinstance(prepared, RestrictedPythonAlgorithm)
        assert elapsed >= 0.0
        assert runtime.stats.setups == 1

    def test_setup_keeps_the_algorithms_budgets(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        context = context_for([CandidateBeacon(beacon, 1)])
        runtime = SandboxRuntime()
        over_steps = RestrictedPythonAlgorithm(source="1 + " * 50 + "1", step_budget=10)
        prepared, _elapsed = runtime.setup(over_steps)
        assert (prepared.step_budget, prepared.time_budget_ms) == (10, over_steps.time_budget_ms)
        with pytest.raises(SandboxResourceError, match="step budget of 10"):
            prepared.execute(context)
        past_deadline = RestrictedPythonAlgorithm(source="latency_ms", time_budget_ms=-1.0)
        prepared, _elapsed = runtime.setup(past_deadline)
        with pytest.raises(SandboxResourceError, match="time budget"):
            prepared.execute(context)

    def test_setup_passes_through_other_algorithms(self):
        from repro.algorithms.shortest_path import KShortestPathAlgorithm

        runtime = SandboxRuntime(modelled_setup_ms=3.0)
        algorithm = KShortestPathAlgorithm(k=2)
        prepared, elapsed = runtime.setup(algorithm)
        assert prepared is algorithm
        assert elapsed >= 3.0
        assert runtime.stats.elapsed_ms >= 3.0

    def test_stats_reset(self):
        runtime = SandboxRuntime()
        runtime.setup(RestrictedPythonAlgorithm(source="1"))
        runtime.stats.reset()
        assert runtime.stats.setups == 0
        assert runtime.stats.elapsed_ms == 0.0
