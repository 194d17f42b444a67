"""Inter-process communication model between gateways and RACs.

The paper's implementation runs the ingress gateway, the egress gateway and
every RAC as separate processes communicating over gRPC with
Protobuf-marshalled PCBs; Figure 6 explicitly decomposes RAC processing
latency into (1) Wasmtime setup, (2) gRPC calls and (3) algorithm
execution.  To reproduce that decomposition the library funnels every
gateway↔RAC exchange through this module, which

* actually gathers the beacons being exchanged into a wire form and charges
  their encoded bytes (so the measured IPC cost and payload scale with the
  candidate-set size, like Protobuf marshalling does) — the wire form is
  every beacon's encoding parts (:meth:`Beacon.wire`), referenced rather
  than copied, as a scatter-gather write would hand them to the socket,
  so a stored candidate keeps no joined copy of its encoding, and
* optionally adds a configurable per-call latency to model the RPC
  overhead of a multi-machine deployment (Fig. 6's modelled IPC cost).

Each exchange returns its measured wall-clock time plus the modelled
latency; the RAC adds both exchanges of a job to
:attr:`repro.core.rac.RACExecutionReport.ipc_ms`, which the
micro-benchmarks read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.core.beacon import Beacon


@dataclass
class IPCChannel:
    """A gateway ↔ RAC channel with marshalling and a latency model.

    Attributes:
        per_call_latency_ms: Fixed modelled latency added per RPC, e.g. to
            emulate running the RAC on a different machine.  Defaults to
            zero (same-host deployment, like the paper's benchmark).
    """

    per_call_latency_ms: float = 0.0

    def marshal_beacons(self, beacons: Sequence[Beacon]) -> Tuple[List[bytes], float]:
        """Gather ``beacons`` for transfer; return (wire form, elapsed ms).

        The wire form is the beacons' encoding parts in order, so it joins to
        their concatenated encodings and ``sum(map(len, wire))`` is the
        payload.
        """
        start = time.perf_counter()
        wire: List[bytes] = []
        for beacon in beacons:
            wire += beacon.wire()
        return wire, (time.perf_counter() - start) * 1000.0 + self.per_call_latency_ms

    def transfer_results(self, selections: Mapping[int, Sequence[Beacon]]) -> float:
        """Model the transfer of interface → selected beacons to the egress gateway (ms).

        The measured part sizes every selected beacon's encoding, as a
        marshaller does before it writes a reply.
        """
        start = time.perf_counter()
        for beacons in selections.values():
            for beacon in beacons:
                beacon.encoded_size()
        return (time.perf_counter() - start) * 1000.0 + self.per_call_latency_ms
