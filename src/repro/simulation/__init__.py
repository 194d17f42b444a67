"""Discrete-event simulation substrate (the ns-3 replacement).

The paper evaluates IREC with an ns-3 based SCION simulator on a 500-AS
topology.  This package provides the equivalent machinery in pure Python:

* :mod:`repro.simulation.engine` — a deterministic discrete-event scheduler,
* :mod:`repro.simulation.network` — the simulated control-plane transport
  that delivers PCBs with per-link propagation delay and records every
  transmission for the overhead analysis,
* :mod:`repro.simulation.collector` — per-interface, per-period PCB
  counters and other measurement hooks,
* :mod:`repro.simulation.scenario` — declarative description of which
  algorithms run in which ASes (the paper's 1SP/5SP/HD/DO/PD setups),
* :mod:`repro.simulation.events` — typed dynamic events (link failures,
  churn, policy/RAC swaps, period changes) that check themselves against
  their timeline, and seeded random failure/churn generators,
* :mod:`repro.simulation.failures` — :class:`LinkState`, the live link and
  AS availability every layer (fabric, data plane, traffic) consults, and
* :mod:`repro.simulation.beaconing` — the periodic beaconing driver that
  originates PCBs, delivers them, runs every AS's RACs each period, applies
  the scenario timeline and measures convergence of watched AS pairs.
"""

from repro.simulation.beaconing import BeaconingSimulation, SimulationResult
from repro.simulation.collector import (
    ConvergenceCollector,
    DisruptionRecord,
    MetricsCollector,
)
from repro.simulation.engine import EventScheduler
from repro.simulation.events import (
    ASJoin,
    ASLeave,
    BeaconPeriodChange,
    LinkFailure,
    LinkRecovery,
    PolicySwap,
    RACSwap,
    ScenarioTimeline,
    TimedEvent,
    random_churn,
    random_link_failures,
)
from repro.simulation.failures import LinkState
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import (
    AlgorithmSpec,
    ScenarioConfig,
    paper_algorithm_suite,
)

__all__ = [
    "ASJoin",
    "ASLeave",
    "AlgorithmSpec",
    "BeaconPeriodChange",
    "BeaconingSimulation",
    "ConvergenceCollector",
    "DisruptionRecord",
    "EventScheduler",
    "LinkFailure",
    "LinkRecovery",
    "LinkState",
    "MetricsCollector",
    "PolicySwap",
    "RACSwap",
    "ScenarioConfig",
    "ScenarioTimeline",
    "SimulatedTransport",
    "SimulationResult",
    "TimedEvent",
    "paper_algorithm_suite",
    "random_churn",
    "random_link_failures",
]
