"""Sandboxed execution of on-demand algorithm payloads.

On-demand RACs execute algorithms received from *other* ASes, so the paper
runs them as WebAssembly modules inside Wasmtime with strict runtime and
memory limits (§V-C, §VII-A).  The reproduction keeps the same three
guarantees with Python-native machinery:

* **Validation** — a payload written as restricted Python is parsed into an
  AST and checked against an allow-list of syntax nodes; imports, attribute
  access to dunder names, ``exec``/``eval``, file access and the like are
  rejected before anything runs (:func:`validate_restricted_source`).
* **Resource bounding** — execution is metered: the scoring expression is
  evaluated through a small interpreter budgeted by node-evaluation count
  and wall-clock time; exceeding either budget aborts the execution with
  :class:`~repro.exceptions.SandboxResourceError`.
* **Isolation** — the payload only sees the explicit beacon-metric
  environment passed to it (latency, bandwidth, hop count, …); there is no
  access to the process' globals, the file system or the network.

The module also provides :class:`SandboxRuntime`, whose ``setup`` step is
the measured analogue of "Wasmtime environment setup" in Figure 6.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Tuple

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
    select_per_interface,
)
from repro.exceptions import SandboxResourceError, SandboxViolationError

#: Default budget on the number of AST nodes evaluated per beacon scoring.
DEFAULT_STEP_BUDGET = 10_000

#: Default wall-clock budget per algorithm execution, in milliseconds.
DEFAULT_TIME_BUDGET_MS = 1_000.0

#: A payload score at or above this excludes the candidate (``inf`` is the
#: idiomatic way to write it).
REJECTION_THRESHOLD = 1e17

#: Maximum accepted payload size in bytes (paper: "the RAC only allows
#: executables up to a certain size limit").
MAX_PAYLOAD_BYTES = 64 * 1024

_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp,
    ast.BinOp,
    ast.UnaryOp,
    ast.IfExp,
    ast.Compare,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.Tuple,
    ast.List,
    ast.And,
    ast.Or,
    ast.Not,
    ast.USub,
    ast.UAdd,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
)

_ALLOWED_FUNCTIONS = {"min", "max", "abs", "round", "len"}

_SAFE_BUILTINS = {"min": min, "max": max, "abs": abs, "round": round, "len": len}


def validate_restricted_source(source: str) -> ast.Expression:
    """Parse and validate a restricted-Python scoring expression.

    The expression computes a numeric *score* for one candidate beacon
    (lower is better) from the variables ``latency_ms``, ``bandwidth_mbps``,
    ``hop_count``, ``intra_latency_ms`` and ``egress_interface``.

    Raises:
        SandboxViolationError: If the source is not a single expression or
            uses disallowed constructs.
    """
    if len(source.encode("utf-8")) > MAX_PAYLOAD_BYTES:
        raise SandboxViolationError(
            f"payload exceeds the {MAX_PAYLOAD_BYTES}-byte size limit"
        )
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise SandboxViolationError(f"payload is not a valid expression: {exc}") from exc

    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise SandboxViolationError(
                f"forbidden construct {type(node).__name__} in algorithm payload"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCTIONS:
                raise SandboxViolationError("only min/max/abs/round/len calls are allowed")
            if node.keywords:
                raise SandboxViolationError("keyword arguments are not allowed in payloads")
        if isinstance(node, ast.Name) and node.id.startswith("__"):
            raise SandboxViolationError("dunder names are not allowed in payloads")
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and len(node.value) > 256:
            raise SandboxViolationError("string constants in payloads are limited to 256 chars")
    return tree


@dataclass
class MeteredEvaluator:
    """Evaluates a validated expression under a step budget."""

    tree: ast.Expression
    step_budget: int = DEFAULT_STEP_BUDGET
    _steps: int = field(default=0, init=False)

    def evaluate(self, variables: Dict[str, float]) -> float:
        """Evaluate the expression over ``variables``.

        Raises:
            SandboxResourceError: If the step budget is exhausted.
            SandboxViolationError: If an unknown name is referenced.
        """
        self._steps = 0
        value = self._eval(self.tree.body, variables)
        return float(value)

    def _charge(self) -> None:
        self._steps += 1
        if self._steps > self.step_budget:
            raise SandboxResourceError(
                f"algorithm exceeded its step budget of {self.step_budget}"
            )

    def _eval(self, node: ast.AST, variables: Dict[str, float]):
        self._charge()
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in variables:
                return variables[node.id]
            if node.id in _SAFE_BUILTINS:
                return _SAFE_BUILTINS[node.id]
            raise SandboxViolationError(f"unknown name {node.id!r} in algorithm payload")
        if isinstance(node, (ast.Tuple, ast.List)):
            return [self._eval(element, variables) for element in node.elts]
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, variables)
            if isinstance(node.op, ast.USub):
                return -operand
            if isinstance(node.op, ast.UAdd):
                return +operand
            return not operand
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, variables)
            right = self._eval(node.right, variables)
            return self._binary(node.op, left, right)
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                result = True
                for value_node in node.values:
                    result = self._eval(value_node, variables)
                    if not result:
                        return result
                return result
            result = False
            for value_node in node.values:
                result = self._eval(value_node, variables)
                if result:
                    return result
            return result
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, variables)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, variables)
                if not self._compare(op, left, right):
                    return False
                left = right
            return True
        if isinstance(node, ast.IfExp):
            condition = self._eval(node.test, variables)
            return self._eval(node.body if condition else node.orelse, variables)
        if isinstance(node, ast.Call):
            function = self._eval(node.func, variables)
            arguments = [self._eval(argument, variables) for argument in node.args]
            return function(*arguments)
        raise SandboxViolationError(f"unsupported node {type(node).__name__}")

    @staticmethod
    def _binary(op: ast.operator, left, right):
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.Div):
            return left / right
        if isinstance(op, ast.FloorDiv):
            return left // right
        if isinstance(op, ast.Mod):
            return left % right
        if isinstance(op, ast.Pow):
            if abs(right) > 64:
                raise SandboxResourceError("exponent too large in algorithm payload")
            return left ** right
        raise SandboxViolationError(f"unsupported operator {type(op).__name__}")

    @staticmethod
    def _compare(op: ast.cmpop, left, right) -> bool:
        if isinstance(op, ast.Eq):
            return left == right
        if isinstance(op, ast.NotEq):
            return left != right
        if isinstance(op, ast.Lt):
            return left < right
        if isinstance(op, ast.LtE):
            return left <= right
        if isinstance(op, ast.Gt):
            return left > right
        if isinstance(op, ast.GtE):
            return left >= right
        raise SandboxViolationError(f"unsupported comparison {type(op).__name__}")


@dataclass
class RestrictedPythonAlgorithm(RoutingAlgorithm):
    """A routing algorithm defined by a restricted-Python scoring expression.

    The expression is evaluated once per (candidate, egress interface) pair
    — once per candidate when it reads neither ``intra_latency_ms`` nor
    ``egress_interface`` — with the candidate's metrics bound to local
    variables; candidates are ranked by ascending score.  A score of
    ``float("inf")`` (or any score at or above :data:`REJECTION_THRESHOLD`)
    excludes the candidate, which is how payloads express hard constraints.
    """

    source: str = "latency_ms"
    paths_per_interface: int = 1
    step_budget: int = DEFAULT_STEP_BUDGET
    time_budget_ms: float = DEFAULT_TIME_BUDGET_MS
    name: ClassVar[str] = "restricted-python"

    def __post_init__(self) -> None:
        self._tree = validate_restricted_source(self.source)
        self._evaluator = MeteredEvaluator(tree=self._tree, step_budget=self.step_budget)
        # A payload that names neither interface-dependent variable scores a
        # candidate the same on every egress interface: evaluate it once.
        self._reads_interface = any(
            isinstance(node, ast.Name) and node.id in ("intra_latency_ms", "egress_interface")
            for node in ast.walk(self._tree)
        )

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Rank candidates by the payload's score, per egress interface."""
        deadline = time.perf_counter() + self.time_budget_ms / 1000.0

        def evaluate(
            candidate: CandidateBeacon,
            _key: Optional[Tuple] = None,
            egress_interface: Optional[int] = None,
        ) -> Optional[Tuple[float]]:
            if time.perf_counter() > deadline:
                raise SandboxResourceError(
                    f"algorithm exceeded its time budget of {self.time_budget_ms} ms"
                )
            score = self.score_candidate(candidate, egress_interface, context)
            return (score,) if score < REJECTION_THRESHOLD else None

        # ``evaluate`` is the per-interface term of a payload that reads the
        # interface, and the whole per-candidate key of one that does not.
        if self._reads_interface:
            return select_per_interface(
                context, self.paths_per_interface, lambda candidate: (), evaluate
            )
        return select_per_interface(context, self.paths_per_interface, evaluate)

    def score_candidate(
        self,
        candidate: CandidateBeacon,
        egress_interface: Optional[int],
        context: ExecutionContext,
    ) -> float:
        """Evaluate the payload expression for one candidate.

        ``egress_interface`` is ``None`` when the payload reads neither
        interface-dependent variable; both are then left unbound.
        """
        beacon = candidate.beacon
        variables = {
            "latency_ms": beacon.total_latency_ms(),
            "bandwidth_mbps": beacon.bottleneck_bandwidth_mbps(),
            "hop_count": float(beacon.hop_count),
            "inf": float("inf"),
        }
        if egress_interface is not None:
            intra = 0.0
            if candidate.ingress_interface is not None:
                intra = context.intra_latency_ms(candidate.ingress_interface, egress_interface)
            variables["intra_latency_ms"] = intra
            variables["egress_interface"] = float(egress_interface)
        return self._evaluator.evaluate(variables)


@dataclass
class SandboxRuntime:
    """Creates fresh, isolated execution environments for payloads.

    ``setup`` re-validates the payload and rebuilds the metered evaluator,
    mirroring the per-execution Wasmtime environment setup the paper
    measures; the RAC adds its cost to
    :attr:`repro.core.rac.RACExecutionReport.setup_ms`.  The fresh
    environment keeps the algorithm's own step and time budgets.
    """

    modelled_setup_ms: float = 0.0

    def setup(self, algorithm: RoutingAlgorithm) -> Tuple[RoutingAlgorithm, float]:
        """Prepare ``algorithm`` for one sandboxed execution.

        Restricted-Python algorithms are re-validated and re-instantiated;
        other algorithm kinds (declarative criteria sets, builtins) only pay
        the modelled setup cost, since they carry no executable code.

        Returns:
            The (possibly re-created) algorithm and the setup cost in ms.
        """
        start = time.perf_counter()
        prepared = algorithm
        if isinstance(algorithm, RestrictedPythonAlgorithm):
            prepared = RestrictedPythonAlgorithm(
                source=algorithm.source,
                paths_per_interface=algorithm.paths_per_interface,
                step_budget=algorithm.step_budget,
                time_budget_ms=algorithm.time_budget_ms,
            )
        return prepared, (time.perf_counter() - start) * 1000.0 + self.modelled_setup_ms
