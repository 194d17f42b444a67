"""Intra-domain (inside one AS) latency models.

IREC's extended-path optimization (paper §IV-E) needs to know the latency
of the intra-AS path between the interface on which a PCB was received and
the egress interface towards which it is being optimized.  The paper's
simulation estimates these latencies from interface geolocations, exactly
as it does for inter-domain links; this module implements that model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.topology.entities import ASInfo
from repro.topology.geo import propagation_delay_ms


@dataclass
class IntraDomainModel:
    """Latency between interface pairs inside one AS.

    The latency between two interfaces is the fibre propagation delay over
    the great-circle distance between their locations.

    Attributes:
        as_info: The AS whose internal network is being modelled.
    """

    as_info: ASInfo

    def latency_ms(self, interface_a: int, interface_b: int) -> float:
        """Return the latency between two local interfaces.

        The latency between an interface and itself is zero by definition.
        """
        if interface_a == interface_b:
            return 0.0
        loc_a = self.as_info.interface(interface_a).location
        loc_b = self.as_info.interface(interface_b).location
        return propagation_delay_ms(loc_a, loc_b)


@dataclass
class IntraDomainRegistry:
    """Per-AS registry of intra-domain models.

    The control service of each AS resolves its own model here; the
    simulation scenario builds one registry for the whole topology so that
    RACs can be handed topology information without a back-reference to the
    full simulation object.
    """

    models: Dict[int, IntraDomainModel] = field(default_factory=dict, init=False)

    def model_for(self, as_info: ASInfo) -> IntraDomainModel:
        """Return (creating on demand) the model for ``as_info``."""
        model = self.models.get(as_info.as_id)
        if model is None:
            model = IntraDomainModel(as_info=as_info)
            self.models[as_info.as_id] = model
        return model
