"""Spans at every layer boundary, recorded from the benchmark's own files.

The traced run wraps the program's public boundary functions -- on the
instance where the object lives as long as the simulation (gateways,
databases, RACs, IPC channels, the transport, the scheduler, the query
frontends, the services and the driver), on the class, restored on exit,
where objects are made per beacon or per bucket (``BeaconBuilder``,
``Signer``/``Verifier``, algorithm ``execute``).  Each call records a span
(name, start, end, parent) in memory; ``trace.json`` is written when the run
ends.  A span's layer is its name up to the last dot, i.e. the module the
wrapped function lives in.

Time the clock spends probing the host is subtracted from every span it
falls into, so spans measure the program only.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.algorithms.base import RoutingAlgorithm
from repro.core.beacon import Beacon, BeaconBuilder
from repro.crypto.signer import Signer, Verifier

#: Class-level patches: (class, attribute, span name).  Algorithm classes
#: are discovered at install time.
_CLASS_PATCHES = (
    # Digesting is where a beacon is first encoded; it is memoized and asked
    # for a few times per beacon, so a class-level span stays cheap.
    (Beacon, "prefix_digests", "core.beacon.digest"),
    (BeaconBuilder, "originate", "core.beacon.originate"),
    (BeaconBuilder, "extend", "core.beacon.extend"),
    (BeaconBuilder, "terminate", "core.beacon.terminate"),
    (Signer, "sign", "crypto.sign"),
    (Verifier, "verify", "crypto.verify"),
)


def _algorithm_classes() -> List[type]:
    found: List[type] = []
    pending = list(RoutingAlgorithm.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "execute" in cls.__dict__ and cls not in found:
            found.append(cls)
    return found


def layer_of(span_name: str) -> str:
    """``core.rac.process`` -> ``core.rac``."""
    return span_name.rpartition(".")[0]


class Tracer:
    """Records spans of wrapped calls; aggregates them per phase and name."""

    def __init__(self) -> None:
        self._timer = time.perf_counter
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Probe time that fell inside the span (subtracted from durations).
        self.span_excluded = array("d")
        self._stack: List[int] = []
        self._excluded_total = 0.0
        #: phase -> name -> sum of the wrapped function's integer results
        #: (for calls whose return value is a count, e.g. ``remove_expired``).
        self.result_sums: Dict[str, Dict[str, int]] = {}
        #: Sizes seen at two boundaries during phase 2: entries and PCB bytes
        #: handed over per drained inbox batch, bytes marshalled for RACs.
        self.batch_entries = 0
        self.pcb_count = 0
        self.pcb_bytes = 0
        self.marshal_bytes = 0
        self._phase_span: Optional[int] = None
        self._phase_name = ""
        self._instance_patches: List[Tuple[object, str]] = []
        self._class_patches: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.name_ids)
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self.span_excluded.append(self._excluded_total)
        self._stack.append(index)
        self.span_start.append(self._timer())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = self._timer()
        self.span_excluded[index] = self._excluded_total - self.span_excluded[index]
        self._stack.pop()

    def exclude(self, begin: float, end: float) -> None:
        """Keep ``[begin, end]`` (a host probe) out of every open span."""
        self._excluded_total += end - begin

    def begin_phase(self, name: str) -> None:
        """Open the root span of a measured phase."""
        self._phase_name = name
        self._phase_span = self._open("phase." + name)

    def end_phase(self) -> None:
        """Close the phase's root span."""
        self._close(self._phase_span)
        self._phase_span = None
        self._phase_name = ""

    def summed(self, phase: str, name: str) -> int:
        """Sum of the integer results of ``name`` during ``phase``."""
        return self.result_sums.get(phase, {}).get(name, 0)

    def wrap(self, name: str, function, sum_result: bool = False):
        """Return ``function`` wrapped in a span called ``name``.

        Outside a phase the wrapper calls straight through, so wrapped
        objects behave (and cost) as before between phases.
        """
        tracer = self
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            if tracer._phase_span is None:
                return function(*args, **kwargs)
            index = open_span(name)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(index)
            if sum_result:
                sums = tracer.result_sums.setdefault(tracer._phase_name, {})
                sums[name] = sums.get(name, 0) + int(result)
            return result

        traced.__wrapped__ = function
        return traced

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """What one recorded span adds to the wall clock, measured here and now.

        A throw-away tracer wraps a no-op; the difference to calling the
        no-op bare is the tracer's own cost per span, from which the traced
        run estimates its overhead without needing an untraced twin.
        """
        scratch = Tracer()
        timer = time.perf_counter

        def noop():
            return None

        traced = scratch.wrap("calibration.noop", noop)
        scratch.begin_phase("calibration")
        begin = timer()
        for _ in range(calls):
            traced()
        middle = timer()
        scratch.end_phase()
        for _ in range(calls):
            noop()
        return max(0.0, ((middle - begin) - (timer() - middle)) / calls)

    # ------------------------------------------------------------------
    # installing and restoring the wrappers
    # ------------------------------------------------------------------
    def _on_instance(self, obj, attribute: str, name: str, sum_result: bool = False) -> None:
        setattr(obj, attribute, self.wrap(name, getattr(obj, attribute), sum_result))
        self._instance_patches.append((obj, attribute))

    def install(self, sim) -> None:
        """Wrap every layer boundary of ``sim`` (see the module docstring)."""
        for cls, attribute, name in _CLASS_PATCHES:
            self._on_class(cls, attribute, name)
        for cls in _algorithm_classes():
            self._on_class(cls, "execute", "algorithms.execute")

        self._on_instance(sim, "run_period", "simulation.beaconing.run_period")
        self._on_instance(sim, "usable_path_count", "simulation.beaconing.probe")
        self._on_instance(sim.scheduler, "run_until", "simulation.engine.run_until")
        self._on_instance(sim.transport, "send_message", "simulation.network.send")
        for service in sim.services.values():
            self._on_instance(service, "run_round", "core.control_service.run_round")
            self._on_dispatch(service)
            self._on_instance(service, "on_revocation", "core.revocation.on_revocation")
            self._on_instance(service, "originate_revocation", "core.revocation.originate")
            self._on_instance(service.ingress, "receive", "core.ingress.receive")
            database = service.ingress.database
            self._on_instance(database, "insert", "core.databases.insert")
            self._on_instance(database, "bucket_keys", "core.databases.fetch")
            self._on_instance(database, "beacons_in_bucket", "core.databases.fetch")
            self._on_instance(database, "remove_expired", "core.databases.expire", True)
            self._on_instance(database, "remove_crossing_link", "core.databases.withdraw", True)
            self._on_instance(database, "remove_crossing_as", "core.databases.withdraw", True)
            egress = service.egress
            self._on_instance(egress, "originate", "core.egress.originate")
            self._on_instance(egress, "propagate", "core.egress.propagate")
            self._on_instance(egress, "register", "core.egress.register")
            self._on_instance(egress.database, "filter_new_interfaces", "core.databases.dedup")
            self._on_instance(egress.database, "remove_expired", "core.databases.expire", True)
            paths = service.path_service
            self._on_instance(paths, "register", "core.databases.path_register")
            self._on_instance(paths, "paths_to", "core.databases.paths_to")
            self._on_instance(paths, "remove_expired", "core.databases.expire", True)
            self._on_instance(paths, "remove_crossing_link", "core.databases.withdraw", True)
            self._on_instance(paths, "remove_crossing_as", "core.databases.withdraw", True)
            self._on_instance(paths, "remove_matching", "core.databases.withdraw", True)
            self._on_instance(service.query_frontend, "query", "core.query.query")
            for rac in getattr(service, "racs", ()):
                self._on_instance(rac, "process", "core.rac.process")
                self._on_marshal(rac.ipc)
                self._on_instance(rac.ipc, "transfer_results", "core.ipc.transfer")
                self._on_instance(rac.sandbox, "setup", "core.sandbox.setup")
                if rac.on_demand_manager is not None:
                    self._on_instance(rac.on_demand_manager, "resolve", "core.ondemand.resolve")

    def _on_dispatch(self, service) -> None:
        """Span around ``on_message_batch`` that also sizes the batch.

        The PCB encodings are memoized by then (dispatch digests every
        PCB), so measuring them computes nothing new.
        """
        traced = self.wrap("core.control_service.dispatch", service.on_message_batch)

        def dispatch(entries, now_ms):
            result = traced(entries, now_ms)
            if self._phase_name == "beaconing":
                self.batch_entries += len(entries)
                for message, _interface in entries:
                    if message.kind == "pcb":
                        self.pcb_count += 1
                        self.pcb_bytes += len(message.beacon.encode())
            return result

        service.on_message_batch = dispatch
        self._instance_patches.append((service, "on_message_batch"))

    def _on_marshal(self, channel) -> None:
        """Span around ``marshal_beacons`` that also sums the wire bytes."""
        traced = self.wrap("core.ipc.marshal", channel.marshal_beacons)

        def marshal(beacons):
            wire, elapsed_ms = traced(beacons)
            if self._phase_name == "beaconing":
                self.marshal_bytes += sum(map(len, wire))
            return wire, elapsed_ms

        channel.marshal_beacons = marshal
        self._instance_patches.append((channel, "marshal_beacons"))

    def _on_class(self, cls: type, attribute: str, name: str) -> None:
        original = cls.__dict__[attribute]
        setattr(cls, attribute, self.wrap(name, original))
        self._class_patches.append((cls, attribute, original))

    def restore(self) -> None:
        """Remove every wrapper this tracer installed."""
        for cls, attribute, original in reversed(self._class_patches):
            setattr(cls, attribute, original)
        self._class_patches.clear()
        for obj, attribute in reversed(self._instance_patches):
            obj.__dict__.pop(attribute, None)
        self._instance_patches.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Return ``phase -> span name -> {calls, cum_s, self_s}``.

        A span's duration excludes probe time; its self time is its
        duration minus that of its direct children.  The phase's own root
        span is reported under the name ``phase`` (its self time is what no
        boundary covers).
        """
        count = len(self.span_name)
        names = sorted(self.name_ids, key=self.name_ids.get)
        duration = [
            self.span_end[i] - self.span_start[i] - self.span_excluded[i] for i in range(count)
        ]
        own = list(duration)
        phase_of = [""] * count
        parents = self.span_parent
        for index in range(count):
            parent = parents[index]
            if parent < 0:
                phase_of[index] = names[self.span_name[index]][len("phase."):]
            else:
                own[parent] -= duration[index]
                phase_of[index] = phase_of[parent]
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for index in range(count):
            name = names[self.span_name[index]] if parents[index] >= 0 else "phase"
            row = table.setdefault(phase_of[index], {}).setdefault(
                name, {"calls": 0, "cum_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["cum_s"] += duration[index]
            row["self_s"] += own[index]
        return table

    def write(self, path: str, extra: Dict[str, object]) -> None:
        """Write every span, column-wise, plus ``extra`` to ``path``."""
        document = dict(extra)
        document["names"] = sorted(self.name_ids, key=self.name_ids.get)
        document["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": [round(value, 7) for value in self.span_start],
            "end_s": [round(value, 7) for value in self.span_end],
            "probe_s": [round(value, 7) for value in self.span_excluded],
        }
        with open(path, "w", encoding="ascii") as handle:
            json.dump(document, handle, separators=(",", ":"))


# ----------------------------------------------------------------------
# layer shares and the workload-dominance table
# ----------------------------------------------------------------------
def layer_shares(phase_table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Share of the phase's traced wall each layer's self time holds."""
    wall = phase_table["phase"]["cum_s"]
    shares: Dict[str, float] = {}
    for name, row in phase_table.items():
        layer = "(uncovered)" if name == "phase" else layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / wall
    return shares


def share_of(phase_table: Dict[str, Dict[str, float]], prefixes: Iterable[str]) -> float:
    """Summed self-time share of the spans whose name starts with a prefix."""
    wall = phase_table["phase"]["cum_s"]
    prefixes = tuple(prefixes)
    return sum(
        row["self_s"] for name, row in phase_table.items() if name.startswith(prefixes)
    ) / wall


def calls_of(phase_table: Dict[str, Dict[str, float]], prefixes: Iterable[str]) -> int:
    prefixes = tuple(prefixes)
    return sum(row["calls"] for name, row in phase_table.items() if name.startswith(prefixes))


#: Span-name prefixes of the churn machinery: revocation handling, the
#: withdrawals it causes and the driver's convergence probe.
CHURN_SPANS = ("core.revocation.", "core.databases.withdraw", "simulation.beaconing.probe")

#: Per workload: (what is asserted, span prefixes, comparison, threshold) over
#: the share of phase-2 self time.  The thresholds are the issue's; resize
#: the workload, never the threshold.
_SELECTION = ("core.rac.", "algorithms.", "core.egress.", "core.databases.")
_PER_PCB = ("core.beacon.", "crypto.", "core.ingress.", "simulation.network.", "simulation.engine.")
_RAC_STACK = ("core.rac.", "core.ipc.", "core.sandbox.", "algorithms.")
_NO_CHURN = ("churn machinery calls", CHURN_SPANS, "calls==", 0)

DOMINANCE = {
    "beacon_wide": (
        ("rac+algorithms+egress+databases", _SELECTION, ">=", 0.50),
        _NO_CHURN,
    ),
    "beacon_long": (
        ("beacon+crypto+ingress+fabric", _PER_PCB, ">=", 0.50),
        ("algorithms+rac", ("algorithms.", "core.rac."), "<=", 0.15),
        _NO_CHURN,
    ),
    "beacon_churn": (("revocation+withdraw+probe", CHURN_SPANS, ">=", 0.25),),
    "rac_grid": (
        ("rac+ipc+sandbox+algorithms", _RAC_STACK, ">=", 0.50),
        ("crypto verify", ("crypto.verify",), "<=", 0.15),
        _NO_CHURN,
    ),
}


def dominance_rows(
    workload: str, phase_table: Dict[str, Dict[str, float]]
) -> List[Dict[str, object]]:
    """Evaluate the workload's dominance assertions on a phase-2 table."""
    rows = []
    for label, prefixes, comparison, threshold in DOMINANCE[workload]:
        if comparison == "calls==":
            value: float = calls_of(phase_table, prefixes)
            holds = value == threshold
        else:
            value = share_of(phase_table, prefixes)
            holds = value >= threshold if comparison == ">=" else value <= threshold
        rows.append(
            {
                "what": label,
                "value": value,
                "comparison": comparison,
                "threshold": threshold,
                "holds": holds,
            }
        )
    return rows
