"""SCION-like stateless data plane.

The data plane is what makes multi-criteria path *optimization* usable:
end hosts turn registered path segments into packet-carried forwarding
state and send packets that encode the complete inter-domain path in their
header; border routers forward purely on that state, never consulting
inter-domain routing tables (paper §III).  End hosts choose among the
registered paths through the policies of :mod:`repro.traffic.selection`.

The package provides:

* :mod:`repro.dataplane.path` — forwarding paths (hop fields) derived from
  registered beacons, and
* :mod:`repro.dataplane.network` — the packet walk: an end-to-end
  forwarding simulation over a topology.
"""

from repro.dataplane.network import DataPlaneNetwork, DeliveryReport
from repro.dataplane.path import ForwardingPath, HopField, forwarding_path_from_segment

__all__ = [
    "DataPlaneNetwork",
    "DeliveryReport",
    "ForwardingPath",
    "HopField",
    "forwarding_path_from_segment",
]
