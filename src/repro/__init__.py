"""IREC — Inter-Domain Routing with Extensible Criteria, reproduced in Python.

This package is a full reproduction of the IREC architecture
(Tabaeiaghdaei et al.): a control plane for path-aware networks in which
every AS runs multiple routing algorithms in parallel, origin ASes can ship
new algorithms inside routing messages (on-demand routing), traffic sources
can request paths towards a target (pull-based routing), and optimization
granularity is tuned with interface groups and extended-path optimization.

The most important entry points:

* :mod:`repro.topology` — topology substrate (generator, geo, PoPs),
* :mod:`repro.core` — PCBs, criteria, gateways, RACs, the control service
  (IREC, or configured as the legacy SCION baseline),
* :mod:`repro.algorithms` — the routing algorithms executed inside RACs,
* :mod:`repro.simulation` — the discrete-event beaconing simulator,
* :mod:`repro.dataplane` — the stateless data plane and end-host selection,
* :mod:`repro.analysis` — figure/table reproduction helpers.

See README.md for a quickstart and DESIGN.md for the complete system map.
"""

from repro.core.beacon import Beacon, BeaconBuilder
from repro.core.control_service import ControlServiceConfig, IrecControlService
from repro.core.criteria import CriteriaSet, Criterion
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import ScenarioConfig
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.graph import Topology

__version__ = "1.0.0"

__all__ = [
    "Beacon",
    "BeaconBuilder",
    "BeaconingSimulation",
    "ControlServiceConfig",
    "CriteriaSet",
    "Criterion",
    "IrecControlService",
    "ScenarioConfig",
    "Topology",
    "TopologyConfig",
    "generate_topology",
    "__version__",
]
