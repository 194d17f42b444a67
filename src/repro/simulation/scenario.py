"""Scenario configuration for the large-scale simulations.

A scenario describes which algorithms run in which ASes, how origin ASes
group their interfaces, how long a beaconing period lasts and how many
periods to simulate.  The module also provides the paper's algorithm
suite — 1SP, 5SP, HD, DON, DOB300, DOB2000 plus an on-demand RAC — as
ready-made :class:`AlgorithmSpec` lists (paper §VIII-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.algorithms.base import RoutingAlgorithm
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.shortest_path import KShortestPathAlgorithm, legacy_scion_algorithm
from repro.core.interface_groups import (
    GeographicGroupingPolicy,
    InterfaceGroupingPolicy,
    SingleGroupPolicy,
)
from repro.core.revocation import DEFAULT_DEDUP_WINDOW_MS
from repro.exceptions import ConfigurationError
from repro.simulation.events import ScenarioTimeline
from repro.units import minutes

#: A factory producing a fresh algorithm instance per AS (RACs must not
#: share algorithm state across ASes).
AlgorithmFactory = Callable[[], RoutingAlgorithm]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One RAC to deploy in every (or selected) ASes of the scenario.

    Attributes:
        rac_id: Container identifier and criteria tag (e.g. ``"1sp"``).
        factory: Creates the per-AS algorithm instance.
        max_paths_per_interface: Per-interface selection limit of the RAC.
        use_interface_groups: Whether the RAC buckets by interface group.
        use_targets: Whether the RAC processes pull-based buckets.
        on_demand: Whether this is an on-demand RAC (``factory`` is ignored).
    """

    rac_id: str
    factory: Optional[AlgorithmFactory] = None
    max_paths_per_interface: int = 20
    use_interface_groups: bool = True
    use_targets: bool = True
    on_demand: bool = False

    def __post_init__(self) -> None:
        if not self.on_demand and self.factory is None:
            raise ConfigurationError(f"static RAC spec {self.rac_id!r} needs a factory")


@dataclass
class ScenarioConfig:
    """Everything needed to run one beaconing simulation.

    Attributes:
        algorithms: The RACs deployed in every IREC AS.
        grouping_policy: Interface-grouping policy of origin ASes.
        propagation_interval_ms: Beaconing period (10 simulated minutes in
            the paper).
        periods: Number of beaconing periods to simulate.
        verify_signatures: Whether ingress gateways verify signature chains
            (disable for large topologies to keep runtime reasonable).
        legacy_ases: ASes that run legacy SCION instead of IREC (the
            backward-compatibility experiment, §VII-B).  A legacy AS is the
            same control service configured as legacy: one static RAC from
            :func:`legacy_scion_spec` instead of ``algorithms``, a single
            interface group, beacons without the group extension and no
            down-segment announcements.
        processing_delay_ms: Per-hop control-plane processing delay.  Also
            the per-hop processing cost of revocation messages: one
            revocation hop takes ``link latency + processing_delay_ms``.
        timeline: Timed dynamic events (failures, churn, policy/RAC swaps,
            period changes) applied by the beaconing driver while the
            simulation runs; see :mod:`repro.simulation.events`.
        revocation_dedup_window_ms: How long every control service
            remembers processed revocation ``(origin, sequence)`` keys;
            duplicates inside the window are dropped without re-applying
            or re-forwarding (see :mod:`repro.core.revocation`).
        inbox_batch_size: Maximum messages the transport fabric hands to a
            control service per inbox drain.  ``None`` (the default)
            drains everything pending at a scheduler tick — the batched
            fast path; ``1`` forces per-message delivery, the behavioural
            reference of the dispatch-equivalence tests.
        loss_seed: Seed of the transport's silent-loss RNG (gray failures,
            flap loss).  Degraded scenarios reroll deterministically under
            the same seed; healthy scenarios never touch the RNG.
        register_down_segments: When enabled, every IREC AS announces the
            paths it registers — once per segment and criteria tag, not once
            per round — back along the segment as path-registration
            messages (down-segment announcements), so origin (core) ASes
            learn down-segments on message arrival.  Off by default: the extra
            fabric traffic would change pinned traces.
        registration_limit: How many paths every AS's path service keeps per
            (criteria tag, origin AS, interface group) — 20 in the paper's
            simulations (§VIII-B); legacy ASes included.
    """

    algorithms: Tuple[AlgorithmSpec, ...]
    grouping_policy: InterfaceGroupingPolicy = field(default_factory=SingleGroupPolicy)
    propagation_interval_ms: float = minutes(10)
    periods: int = 4
    verify_signatures: bool = True
    legacy_ases: Tuple[int, ...] = ()
    processing_delay_ms: float = 1.0
    timeline: ScenarioTimeline = field(default_factory=ScenarioTimeline)
    revocation_dedup_window_ms: float = DEFAULT_DEDUP_WINDOW_MS
    inbox_batch_size: Optional[int] = None
    loss_seed: int = 0
    register_down_segments: bool = False
    registration_limit: int = 20

    def __post_init__(self) -> None:
        if not self.algorithms and not self.legacy_ases:
            raise ConfigurationError("a scenario needs at least one algorithm or legacy AS")
        if self.periods < 1:
            raise ConfigurationError(f"periods must be positive, got {self.periods}")
        timings = ("propagation_interval_ms", "processing_delay_ms", "revocation_dedup_window_ms")
        for name in timings:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.propagation_interval_ms <= 0:
            raise ConfigurationError(
                f"propagation interval must be positive, got {self.propagation_interval_ms}"
            )
        if self.processing_delay_ms < 0:
            raise ConfigurationError(
                f"processing_delay_ms must not be negative, got {self.processing_delay_ms}"
            )
        if self.revocation_dedup_window_ms < 0:
            raise ConfigurationError(
                "revocation_dedup_window_ms must not be negative, "
                f"got {self.revocation_dedup_window_ms}"
            )
        if self.registration_limit < 1:
            raise ConfigurationError(
                f"registration_limit must be positive, got {self.registration_limit}"
            )
        if self.inbox_batch_size is not None and self.inbox_batch_size < 1:
            raise ConfigurationError(
                f"inbox_batch_size must be None or >= 1, got {self.inbox_batch_size}"
            )


# ----------------------------------------------------------------------
# the paper's algorithm suite
# ----------------------------------------------------------------------
def one_shortest_path_spec() -> AlgorithmSpec:
    """1SP: propagate the single shortest path per origin on every interface."""
    return AlgorithmSpec(
        rac_id="1sp",
        factory=lambda: KShortestPathAlgorithm(k=1),
        use_interface_groups=False,
    )


def five_shortest_paths_spec() -> AlgorithmSpec:
    """5SP: propagate the five shortest paths per origin on every interface."""
    return AlgorithmSpec(
        rac_id="5sp",
        factory=lambda: KShortestPathAlgorithm(k=5),
        use_interface_groups=False,
    )


def heuristic_disjointness_spec() -> AlgorithmSpec:
    """HD: heuristically optimize inter-domain link disjointness."""
    return AlgorithmSpec(
        rac_id="hd",
        factory=lambda: HeuristicDisjointnessAlgorithm(paths_per_interface=5),
        use_interface_groups=False,
    )


def delay_optimization_spec(extended_paths: bool, rac_id: Optional[str] = None) -> AlgorithmSpec:
    """DO: delay optimization on received (DON) or extended (DOB) paths."""
    identifier = rac_id or ("dob" if extended_paths else "don")
    return AlgorithmSpec(
        rac_id=identifier,
        factory=lambda: DelayOptimizationAlgorithm(
            paths_per_interface=3, use_extended_paths=extended_paths
        ),
        use_interface_groups=extended_paths,
    )


def on_demand_spec() -> AlgorithmSpec:
    """The on-demand RAC used by pull-based disjointness."""
    return AlgorithmSpec(rac_id="on-demand", on_demand=True)


def legacy_scion_spec() -> AlgorithmSpec:
    """Legacy SCION: the 20 shortest paths per origin, tagged ``"legacy"``.

    The one RAC of every AS in :attr:`ScenarioConfig.legacy_ases`.  Being
    static, it skips algorithm-extension buckets, so a legacy AS does not
    propagate on-demand (pull-based disjointness) beacons.
    """
    return AlgorithmSpec(rac_id="legacy", factory=legacy_scion_algorithm)


def paper_algorithm_suite() -> Tuple[AlgorithmSpec, ...]:
    """Return the paper's per-AS deployment: four static RACs + one on-demand RAC.

    The DO static RAC is instantiated in its DON flavour here; the DOB
    variants additionally need a geographic grouping policy on the scenario
    (see :func:`dob_scenario`).
    """
    return (
        one_shortest_path_spec(),
        five_shortest_paths_spec(),
        heuristic_disjointness_spec(),
        delay_optimization_spec(extended_paths=False),
        on_demand_spec(),
    )


def don_scenario(periods: int = 4, verify_signatures: bool = False) -> ScenarioConfig:
    """Scenario with 1SP, 5SP and DON (no interface groups)."""
    return ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            five_shortest_paths_spec(),
            delay_optimization_spec(extended_paths=False),
        ),
        grouping_policy=SingleGroupPolicy(),
        periods=periods,
        verify_signatures=verify_signatures,
    )


def dob_scenario(
    radius_km: float, periods: int = 4, verify_signatures: bool = False
) -> ScenarioConfig:
    """Scenario with 1SP, 5SP and DOB with a geographic grouping radius.

    ``radius_km = 300`` and ``radius_km = 2000`` reproduce the paper's
    DOB300 and DOB2000 configurations.
    """
    return ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            five_shortest_paths_spec(),
            delay_optimization_spec(extended_paths=True, rac_id=f"dob{int(radius_km)}"),
        ),
        grouping_policy=GeographicGroupingPolicy(radius_km=radius_km),
        periods=periods,
        verify_signatures=verify_signatures,
    )


def disjointness_scenario(periods: int = 4, verify_signatures: bool = False) -> ScenarioConfig:
    """Scenario with 1SP, 5SP, HD and an on-demand RAC (for PD)."""
    return ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            five_shortest_paths_spec(),
            heuristic_disjointness_spec(),
            on_demand_spec(),
        ),
        grouping_policy=SingleGroupPolicy(),
        periods=periods,
        verify_signatures=verify_signatures,
    )
