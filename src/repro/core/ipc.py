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
* optionally adds a configurable per-call and per-byte latency to model the
  network/RPC overhead of a multi-machine deployment.

The measured wall-clock time of each exchange is accumulated in an
:class:`IPCStats` object that the micro-benchmarks read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Sequence, Tuple

from repro.core.beacon import Beacon


@dataclass
class IPCStats:
    """Accumulated cost of gateway ↔ RAC exchanges."""

    calls: int = 0
    bytes_transferred: int = 0
    elapsed_ms: float = 0.0
    modelled_latency_ms: float = 0.0

    def record(self, payload_bytes: int, elapsed_ms: float, modelled_ms: float) -> None:
        """Record one RPC exchange."""
        self.calls += 1
        self.bytes_transferred += payload_bytes
        self.elapsed_ms += elapsed_ms
        self.modelled_latency_ms += modelled_ms

    @property
    def total_ms(self) -> float:
        """Return measured plus modelled latency."""
        return self.elapsed_ms + self.modelled_latency_ms

    def reset(self) -> None:
        """Zero all counters."""
        self.calls = 0
        self.bytes_transferred = 0
        self.elapsed_ms = 0.0
        self.modelled_latency_ms = 0.0


@dataclass
class IPCChannel:
    """A gateway ↔ RAC channel with marshalling and a latency model.

    Attributes:
        per_call_latency_ms: Fixed modelled latency added per RPC, e.g. to
            emulate running the RAC on a different machine.  Defaults to
            zero (same-host deployment, like the paper's benchmark).
        per_kilobyte_latency_ms: Modelled latency per kilobyte of payload.
    """

    per_call_latency_ms: float = 0.0
    per_kilobyte_latency_ms: float = 0.0
    stats: IPCStats = field(default_factory=IPCStats)

    def marshal_beacons(self, beacons: Sequence[Beacon]) -> Tuple[List[bytes], float]:
        """Gather ``beacons`` for transfer; return (wire form, elapsed ms).

        The wire form is the beacons' encoding parts in order, so it joins to
        their concatenated encodings and ``sum(map(len, wire))`` is the
        payload charged.
        """
        start = time.perf_counter()
        wire: List[bytes] = []
        payload = 0
        for beacon in beacons:
            wire += beacon.wire()
            payload += beacon.encoded_size()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        modelled = self._modelled_latency(payload)
        self.stats.record(payload, elapsed_ms, modelled)
        return wire, elapsed_ms + modelled

    def transfer_results(self, selections: Mapping[int, Sequence[Beacon]]) -> float:
        """Model the transfer of interface → selected beacons to the egress gateway (ms)."""
        start = time.perf_counter()
        payload = 0
        for beacons in selections.values():
            for beacon in beacons:
                payload += beacon.encoded_size() + 8
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        modelled = self._modelled_latency(payload)
        self.stats.record(payload, elapsed_ms, modelled)
        return elapsed_ms + modelled

    def _modelled_latency(self, payload_bytes: int) -> float:
        return self.per_call_latency_ms + self.per_kilobyte_latency_ms * payload_bytes / 1024.0
