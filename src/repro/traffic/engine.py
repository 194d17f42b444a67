"""The flow-level traffic engine.

This is the layer the reproduction was missing between the control plane
and any statement about "serving traffic": a :class:`TrafficEngine` drives
the flows of a :class:`~repro.traffic.demand.TrafficMatrix` over the paths
the control plane registered, through the capacity-aware
:class:`~repro.traffic.links.CapacityLinkModel`, in rounds scheduled on a
discrete-event scheduler.

Per round, every flow group

1. (re-)selects paths when it has none — via an
   :class:`~repro.dataplane.endhost.EndHost` and a pluggable
   :mod:`selection policy <repro.traffic.selection>`, optionally verified
   by delivering a probe packet over the real forwarding simulation,
2. offers its demand onto its selected paths (ECMP splits spread both the
   demand and the max-min weight), and
3. receives a weighted max-min fair share of every traversed link.

Coupling to the scenario engine is message-driven: attached to a
:class:`~repro.simulation.beaconing.BeaconingSimulation`, the engine
subscribes to revocation withdrawals, so a link failure breaks the flow
groups riding the link *when the revocation message reaches each group's
source AS* — near sources react before far ones, exactly like their
control planes.  (The data plane is still physically broken from the
failure instant onwards: rounds never offer demand onto unavailable
links.)  The next round re-selects from the withdrawn/re-registered path
service, and the :class:`~repro.traffic.collector.TrafficCollector` turns
the gap into time-to-reroute and goodput dip/recovery curves.

Closed-loop demand (PR 7, opt-in via :class:`ClosedLoopDemand`): flow
groups observe their own delivered fraction — congestion share times the
silent-loss survival of their paths — back off their offered demand under
loss, recover when the loss clears, and steer around silently lossy paths
when clean alternatives are registered.  This is what makes gray failures
survivable: the control plane stays blind, the end hosts do not.

The per-round fast path is aggregate-batched: groups sharing a forwarding
path merge into one :class:`~repro.traffic.links.PathLoad`, path links are
resolved to dense link indices once per (path, engine) and memoized, and
healthy rounds skip availability checks entirely while the network is
unimpaired — which is what lets a medium-scale run sustain well over the
100k flow-rounds/s target in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.databases import PathService, RegisteredPath
from repro.core.messages import RevocationMessage
from repro.core.query import PathQueryFrontend
from repro.dataplane.endhost import EndHost, PathPolicy
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.path import forwarding_path_from_segment
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.engine import EventScheduler
from repro.simulation.events import ASJoin, ASLeave, LinkFailure, LinkRecovery, ScenarioEvent
from repro.simulation.failures import LinkState
from repro.topology.graph import Topology
from repro.traffic.collector import RoundSample, TrafficCollector
from repro.traffic.demand import TrafficMatrix
from repro.traffic.links import CapacityLinkModel, PathLoad
from repro.traffic.selection import LatencyGreedyPolicy, prefer_clean


@dataclass(frozen=True)
class ClosedLoopDemand:
    """Configuration of loss-adaptive (closed-loop) demand.

    With closed-loop demand enabled, every flow group observes its own
    delivered fraction each round — congestion share from the max-min
    allocation times the silent-loss survival of its paths (gray
    failures, flap loss) — and adapts: observed loss above
    ``loss_threshold`` multiplies the group's offered demand by
    ``backoff_factor`` (floored at ``min_demand_fraction`` of nominal),
    a clean round multiplies it by ``recovery_factor`` (capped at
    nominal).  Groups also steer *around* silently lossy paths when a
    clean alternative is registered (see
    :func:`repro.traffic.selection.prefer_clean`) — the end-host
    rerouting that makes gray failures survivable despite a blind
    control plane.
    """

    loss_threshold: float = 0.05
    backoff_factor: float = 0.5
    recovery_factor: float = 1.25
    min_demand_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.loss_threshold < 1.0:
            raise ConfigurationError(
                f"loss_threshold must be within (0, 1), got {self.loss_threshold}"
            )
        if not 0.0 < self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be within (0, 1), got {self.backoff_factor}"
            )
        if self.recovery_factor < 1.0:
            raise ConfigurationError(
                f"recovery_factor must be >= 1, got {self.recovery_factor}"
            )
        if not 0.0 < self.min_demand_fraction <= 1.0:
            raise ConfigurationError(
                f"min_demand_fraction must be within (0, 1], got {self.min_demand_fraction}"
            )


@dataclass
class _PathUse:
    """One selected path of a flow group (memoized link indices)."""

    digest: str
    link_indices: Tuple[int, ...]
    share: float  # fraction of the group's demand on this path


@dataclass
class _GroupState:
    """Mutable per-flow-group runtime state."""

    uses: List[_PathUse] = field(default_factory=list)
    #: Closed-loop multiplier on the group's nominal demand (1.0 = open
    #: loop / fully recovered).
    demand_factor: float = 1.0

    @property
    def assigned(self) -> bool:
        return bool(self.uses)


class TrafficEngine:
    """Drives a traffic matrix over registered paths in scheduled rounds.

    Args:
        topology: The shared topology (link capacities).
        path_services: Per-AS path services flows select from.
        matrix: The demand to simulate.
        link_state: Live availability shared with the scenario engine.
        policy: Path-selection policy applied by every group's end host.
        scheduler: Discrete-event scheduler rounds are scheduled on.
        round_interval_ms: Gap between consecutive traffic rounds.
        link_model: Capacity model; built from the topology when omitted.
        collector: Measurement sink; a fresh one when omitted.
        probe_network: Optional forwarding fabric; when given, every fresh
            path selection is verified by delivering one probe packet and
            rejected if forwarding fails (catches stale control-plane state
            the link-state check alone would miss).
        queue_delay_provider: Optional ``as_id -> delay_ms`` callable
            reporting the control-plane inbox backlog at an AS (see
            :meth:`repro.simulation.network.SimulatedTransport.queue_backlog_ms`);
            :meth:`per_flow_latency_ms` adds it to path latency so
            overloaded sources surface in per-flow latency.
    """

    def __init__(
        self,
        topology: Topology,
        path_services: Dict[int, PathService],
        matrix: TrafficMatrix,
        link_state: Optional[LinkState] = None,
        policy: Optional[PathPolicy] = None,
        scheduler: Optional[EventScheduler] = None,
        round_interval_ms: float = 1_000.0,
        link_model: Optional[CapacityLinkModel] = None,
        collector: Optional[TrafficCollector] = None,
        probe_network: Optional[DataPlaneNetwork] = None,
        queue_delay_provider: Optional[Callable[[int], float]] = None,
        closed_loop: Optional[ClosedLoopDemand] = None,
        query_frontends: Optional[Dict[int, PathQueryFrontend]] = None,
    ) -> None:
        if round_interval_ms <= 0.0:
            raise ConfigurationError(
                f"round interval must be positive, got {round_interval_ms}"
            )
        self.closed_loop = closed_loop
        self.topology = topology
        self.path_services = path_services
        self.matrix = matrix
        self.link_state = link_state if link_state is not None else LinkState()
        self.policy: PathPolicy = policy if policy is not None else LatencyGreedyPolicy()
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.round_interval_ms = round_interval_ms
        self.link_model = link_model if link_model is not None else CapacityLinkModel(topology)
        self.collector = collector if collector is not None else TrafficCollector()
        self.probe_network = probe_network
        self.queue_delay_provider = queue_delay_provider
        self.rounds_run = 0
        #: Per-AS serving tier the engine's end hosts query through.  If
        #: none is supplied (standalone construction), one frontend per
        #: path service is built on the engine's scheduler clock; they
        #: stay coherent through the services' invalidation listeners.
        if query_frontends is None:
            query_frontends = {
                as_id: PathQueryFrontend(service, clock=lambda: self.scheduler.now_ms)
                for as_id, service in path_services.items()
            }
        self.query_frontends = query_frontends

        for group in matrix:
            if group.source_as not in path_services:
                raise ConfigurationError(
                    f"flow group {group.group_id}: no path service for AS {group.source_as}"
                )

        self._groups = list(matrix.groups)
        self._total_flows = matrix.total_flows
        self._state: List[_GroupState] = [_GroupState() for _ in self._groups]
        self._hosts: Dict[int, EndHost] = {}
        #: source AS → group indices (for revocation-driven breaking).
        self._groups_by_source: Dict[int, List[int]] = {}
        for group_index, group in enumerate(self._groups):
            self._groups_by_source.setdefault(group.source_as, []).append(group_index)
        #: digest → (link indices, path latency); shared across groups.
        self._path_cache: Dict[str, Tuple[Tuple[int, ...], float]] = {}
        #: link index → group ids currently riding the link (for event-
        #: driven breaking without scanning every group).
        self._groups_by_link: Dict[int, Set[int]] = {}
        #: AS id → link indices (for ASLeave fan-out).
        self._links_by_as: Dict[int, Tuple[int, ...]] = {
            as_id: tuple(
                self.link_model.link_index(link.key)
                for link in topology.links_of(as_id)
            )
            for as_id in topology.as_ids()
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_simulation(
        cls,
        simulation: BeaconingSimulation,
        matrix: TrafficMatrix,
        policy: Optional[PathPolicy] = None,
        round_interval_ms: float = 60_000.0,
        link_model: Optional[CapacityLinkModel] = None,
        collector: Optional[TrafficCollector] = None,
        probe_paths: bool = True,
        closed_loop: Optional[ClosedLoopDemand] = None,
    ) -> "TrafficEngine":
        """Attach a traffic engine to a running beaconing simulation.

        The engine shares the simulation's scheduler and link state,
        selects from its per-AS path services, and subscribes to both
        applied timeline events (churn breaks endpoint flows immediately)
        and revocation withdrawals (transit failures break flows when the
        revocation reaches each group's source AS).  Call
        :meth:`schedule_rounds` before ``simulation.run()``.
        """
        network = None
        if probe_paths:
            network = DataPlaneNetwork(
                topology=simulation.topology,
                intra_domain=simulation.intra_domain,
                link_state=simulation.link_state,
            )
        engine = cls(
            topology=simulation.topology,
            path_services={
                as_id: service.path_service
                for as_id, service in simulation.services.items()
            },
            query_frontends={
                as_id: service.query_frontend
                for as_id, service in simulation.services.items()
            },
            matrix=matrix,
            link_state=simulation.link_state,
            policy=policy,
            scheduler=simulation.scheduler,
            round_interval_ms=round_interval_ms,
            link_model=link_model,
            collector=collector,
            probe_network=network,
            queue_delay_provider=simulation.transport.queue_backlog_ms,
            closed_loop=closed_loop,
        )
        simulation.add_event_listener(engine.on_scenario_event)
        simulation.add_revocation_listener(engine.on_revocation)
        return engine

    def _host_for(self, as_id: int) -> EndHost:
        host = self._hosts.get(as_id)
        if host is None:
            host = EndHost(
                host_id=f"traffic-{as_id}",
                as_id=as_id,
                path_service=self.path_services[as_id],
                query_frontend=self.query_frontends.get(as_id),
            )
            self._hosts[as_id] = host
        return host

    # ------------------------------------------------------------------
    # scenario-event coupling
    # ------------------------------------------------------------------
    def on_scenario_event(self, event: ScenarioEvent, now_ms: float) -> None:
        """Break active flow groups invalidated by a scenario event.

        Registered as a :meth:`BeaconingSimulation.add_event_listener`
        callback.  Only *locally observable* failures break flows here: a
        departed source/destination AS takes its endpoint groups down
        instantly.  Transit failures (a link dying somewhere on the path)
        are control-plane news — those groups break in :meth:`on_revocation`
        when the revocation message reaches their source AS, so break
        timestamps are propagation-ordered.  Recoveries need no action
        because black-holed groups re-select at every subsequent round.
        """
        if isinstance(event, ASLeave):
            self._break_endpoint_groups(event.as_id, event, now_ms)
        elif isinstance(event, (LinkFailure, LinkRecovery, ASJoin)):
            return
        # Policy/RAC swaps and period changes do not invalidate forwarding
        # state; withdrawn paths surface at the next round's revalidation.

    def on_revocation(self, as_id: int, message, removed, now_ms: float) -> None:
        """Break flow groups whose paths a withdrawal message just removed.

        Registered as a :meth:`BeaconingSimulation.add_revocation_listener`
        callback: fired when a control message withdraws state at
        ``as_id``.  The listener is keyed on the fabric's message type —
        only :class:`~repro.core.messages.RevocationMessage` withdrawals
        break flows; other (future) withdrawal-causing message kinds are
        ignored here.  Groups sourced at that AS whose selected paths
        vanished are broken *now* — at withdrawal-arrival time, not at
        the failure timestamp.
        """
        if not isinstance(message, RevocationMessage):
            return
        _ingress_removed, paths_removed = removed
        if not paths_removed:
            return
        service = self.path_services.get(as_id)
        if service is None:
            return
        for group_index in self._groups_by_source.get(as_id, ()):
            state = self._state[group_index]
            if not state.assigned:
                continue
            if any(service.get(use.digest) is None for use in state.uses):
                self._invalidate_group(group_index, message.trace_label(), now_ms)

    def _break_endpoint_groups(
        self, as_id: int, event: ScenarioEvent, now_ms: float
    ) -> None:
        for group_index, group in enumerate(self._groups):
            if as_id in (group.source_as, group.destination_as) and self._state[
                group_index
            ].assigned:
                self._invalidate_group(group_index, event.trace_label(), now_ms)

    def _invalidate_group(self, group_index: int, cause: str, now_ms: float) -> None:
        state = self._state[group_index]
        if not state.assigned:
            return
        self._unindex_group(group_index, state)
        state.uses = []
        group = self._groups[group_index]
        self.collector.on_break(group.group_id, now_ms, cause, group.flow_count)

    def _unindex_group(self, group_index: int, state: _GroupState) -> None:
        for use in state.uses:
            for index in use.link_indices:
                members = self._groups_by_link.get(index)
                if members is not None:
                    members.discard(group_index)

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def schedule_rounds(
        self, start_ms: float, count: int, interval_ms: Optional[float] = None
    ) -> None:
        """Schedule ``count`` traffic rounds starting at ``start_ms``.

        Rounds are pinned to absolute times up front (not self-
        rescheduling), so they interleave deterministically with PCB
        deliveries and timeline events already on the shared scheduler.
        """
        if count < 0:
            raise SimulationError(f"round count must be non-negative, got {count}")
        interval = interval_ms if interval_ms is not None else self.round_interval_ms
        for round_index in range(count):
            self.scheduler.schedule_at(start_ms + round_index * interval, self.run_round)

    def run_rounds(self, count: int, start_ms: Optional[float] = None) -> TrafficCollector:
        """Run ``count`` rounds standalone on the engine's own scheduler."""
        begin = start_ms if start_ms is not None else self.scheduler.now_ms
        self.schedule_rounds(begin, count)
        self.scheduler.run_until(begin + count * self.round_interval_ms)
        return self.collector

    def run_round(self, now_ms: float) -> RoundSample:
        """Execute one traffic round at simulated time ``now_ms``."""
        failed_indices: Set[int] = set()
        if self.link_state.impaired():
            # O(failed + offline-AS degree), resolved through the link
            # model's own index (never positional enumeration — the model
            # may have been built independently).
            for link_id in self.link_state.failed_links:
                try:
                    failed_indices.add(self.link_model.link_index(link_id))
                except ConfigurationError:
                    continue  # link unknown to the model: nothing rides it
            for as_id in self.link_state.offline_ases:
                failed_indices.update(self._links_by_as.get(as_id, ()))

        # Batched loads: path digest → [total demand, total weight, links].
        batches: Dict[str, List] = {}
        closed_loop = self.closed_loop
        offered = 0.0
        unserved = 0.0
        active_groups = 0
        blackholed = 0

        for group_index, group in enumerate(self._groups):
            state = self._state[group_index]
            demand = group.demand_mbps
            if closed_loop is not None:
                demand *= state.demand_factor
            offered += demand

            if state.assigned and not self._assignment_valid(
                group, state, failed_indices
            ):
                self._unindex_group(group_index, state)
                state.uses = []
            if not state.assigned:
                self._select_paths(group_index, now_ms, failed_indices)
                if state.assigned and self.collector.is_blackholed(group.group_id):
                    self.collector.on_reroute(group.group_id, now_ms)

            if not state.assigned:
                unserved += demand
                blackholed += 1
                continue

            active_groups += 1
            for use in state.uses:
                batch = batches.get(use.digest)
                if batch is None:
                    batches[use.digest] = [
                        demand * use.share,
                        group.flow_count * use.share,
                        use.link_indices,
                    ]
                else:
                    batch[0] += demand * use.share
                    batch[1] += group.flow_count * use.share

        loads = [
            PathLoad(key=digest, link_indices=links, demand_mbps=demand, weight=weight)
            for digest, (demand, weight, links) in sorted(batches.items())
        ]
        result = self.link_model.allocate(loads)
        max_utilization = 0.0
        for index, load in result.link_load_mbps.items():
            capacity = self.link_model.capacity_of(index)
            if capacity > 0.0:
                utilization = load / capacity
                if utilization > max_utilization:
                    max_utilization = utilization
        latency_weighted = 0.0
        for digest, carried in result.carried_mbps.items():
            latency_weighted += carried * self._path_cache[digest][1]
        mean_latency = (
            latency_weighted / result.total_carried_mbps
            if result.total_carried_mbps > 0.0
            else 0.0
        )

        if closed_loop is not None:
            self._adapt_demand(batches, result, now_ms)

        sample = RoundSample(
            time_ms=now_ms,
            offered_mbps=offered,
            carried_mbps=result.total_carried_mbps,
            unserved_mbps=unserved,
            active_groups=active_groups,
            blackholed_groups=blackholed,
            flow_rounds=self._total_flows,
            max_link_utilization=max_utilization,
            mean_latency_ms=mean_latency,
        )
        self.collector.on_round(sample)
        self.rounds_run += 1
        return sample

    # ------------------------------------------------------------------
    # closed-loop demand
    # ------------------------------------------------------------------
    def _adapt_demand(self, batches: Dict[str, List], result, now_ms: float) -> None:
        """Adjust every assigned group's demand factor from observed loss.

        One group's delivered fraction is its share-weighted product of
        per-path congestion fraction (carried / offered on the digest)
        and silent-loss survival.  Factor changes are recorded via
        :meth:`TrafficCollector.on_backoff`; unchanged factors stay
        silent so steady state adds no trace lines.
        """
        closed_loop = self.closed_loop
        degraded = self.link_state.degraded()
        for group_index, group in enumerate(self._groups):
            state = self._state[group_index]
            if not state.assigned:
                continue
            delivered = 0.0
            for use in state.uses:
                batch = batches[use.digest]
                carried = result.carried_mbps.get(use.digest, 0.0)
                fraction = carried / batch[0] if batch[0] > 0.0 else 1.0
                if degraded:
                    fraction *= 1.0 - self._path_silent_loss(use.link_indices)
                delivered += use.share * fraction
            loss = 1.0 - delivered
            if loss > closed_loop.loss_threshold:
                new_factor = max(
                    closed_loop.min_demand_fraction,
                    state.demand_factor * closed_loop.backoff_factor,
                )
            else:
                new_factor = min(
                    1.0, state.demand_factor * closed_loop.recovery_factor
                )
            if new_factor != state.demand_factor:
                state.demand_factor = new_factor
                self.collector.on_backoff(group.group_id, now_ms, new_factor, loss)

    def _path_silent_loss(self, link_indices: Tuple[int, ...]) -> float:
        """Return a path's end-host-observed silent-drop probability.

        Product of per-link worst-direction survival (see
        :meth:`LinkState.silent_loss`); zero while nothing is degraded.
        """
        state = self.link_state
        link_id_of = self.link_model.link_id_of
        survival = 1.0
        for index in link_indices:
            rate = state.silent_loss(link_id_of(index))
            if rate:
                survival *= 1.0 - rate
        return 1.0 - survival

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def _assignment_valid(
        self, group, state: _GroupState, failed_indices: Set[int]
    ) -> bool:
        """Return whether every selected path is still registered and up.

        With closed-loop demand enabled, a path that has become silently
        lossy beyond the loss threshold also invalidates the assignment:
        the next selection steers around it when a clean alternative is
        registered (the control plane never withdraws gray links, so only
        this end-host check can).
        """
        service = self.path_services[group.source_as]
        closed_loop = self.closed_loop
        check_loss = closed_loop is not None and self.link_state.degraded()
        for use in state.uses:
            if failed_indices and not failed_indices.isdisjoint(use.link_indices):
                return False
            if service.get(use.digest) is None:
                return False  # withdrawn or expired since selection
            if (
                check_loss
                and self._path_silent_loss(use.link_indices) > closed_loop.loss_threshold
            ):
                return False
        return True

    def _select_paths(
        self, group_index: int, now_ms: float, failed_indices: Set[int]
    ) -> None:
        group = self._groups[group_index]
        if not (
            self.link_state.is_as_up(group.source_as)
            and self.link_state.is_as_up(group.destination_as)
        ):
            return
        host = self._host_for(group.source_as)

        def usable_only(candidates):
            # Filter before the policy ranks: a policy that returns only
            # its single favourite must not pick a path that is already
            # known-dead when alternatives exist.
            usable = []
            for path in candidates:
                resolved = self._resolve(path)
                if resolved is None:
                    continue
                if failed_indices and not failed_indices.isdisjoint(resolved[1]):
                    continue
                usable.append(path)
            if self.closed_loop is not None and self.link_state.degraded():
                usable = prefer_clean(
                    usable,
                    lambda path: self._path_silent_loss(self._resolve(path)[1]),
                    self.closed_loop.loss_threshold,
                )
            return self.policy(usable)

        weighted = host.select_weighted(group.destination_as, usable_only)
        if not weighted:
            return
        total_weight = sum(weight for _path, weight in weighted)
        if total_weight <= 0.0:
            return
        state = self._state[group_index]
        uses: List[_PathUse] = []
        for path, weight in weighted:
            digest, link_indices = self._resolve(path)
            if self.probe_network is not None and not self._probe(path):
                continue
            uses.append(
                _PathUse(
                    digest=digest,
                    link_indices=link_indices,
                    share=weight / total_weight,
                )
            )
        share_total = sum(use.share for use in uses)
        if not uses or share_total <= 0.0:
            return
        # Renormalise in case some selected paths were rejected.
        for use in uses:
            use.share /= share_total
        state.uses = uses
        for use in uses:
            for index in use.link_indices:
                self._groups_by_link.setdefault(index, set()).add(group_index)

    def _resolve(self, path: RegisteredPath) -> Optional[Tuple[str, Tuple[int, ...]]]:
        """Memoize a registered path's digest and dense link indices."""
        digest = path.segment.digest()
        cached = self._path_cache.get(digest)
        if cached is None:
            try:
                link_indices = self.link_model.indices_for(path.segment.links())
            except KeyError:
                return None  # path references a link outside the topology
            cached = (link_indices, path.segment.total_latency_ms())
            self._path_cache[digest] = cached
        return digest, cached[0]

    def _probe(self, path: RegisteredPath) -> bool:
        """Deliver one probe packet over ``path``; return success."""
        packet = Packet(
            path=forwarding_path_from_segment(path.segment),
            source_host="traffic-probe",
            destination_host="traffic-probe",
        )
        return self.probe_network.deliver(packet).delivered

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def expected_latency_ms(self, group_id: int) -> Optional[float]:
        """Return the demand-weighted latency of a group's selected paths."""
        for group_index, group in enumerate(self._groups):
            if group.group_id != group_id:
                continue
            state = self._state[group_index]
            if not state.assigned:
                return None
            return sum(
                self._path_cache[use.digest][1] * use.share for use in state.uses
            )
        raise ConfigurationError(f"unknown flow group {group_id}")

    def per_flow_latency_ms(self) -> Dict[int, float]:
        """Return each assigned group's end-to-end latency estimate.

        Share-weighted path propagation latency plus — when a
        ``queue_delay_provider`` is attached — the control-plane inbox
        backlog at the group's source AS, so slow or overloaded control
        planes show up in the flows they steer.  Unassigned (black-holed)
        groups are absent from the result.
        """
        provider = self.queue_delay_provider
        latencies: Dict[int, float] = {}
        for group_index, group in enumerate(self._groups):
            state = self._state[group_index]
            if not state.assigned:
                continue
            latency = sum(
                self._path_cache[use.digest][1] * use.share for use in state.uses
            )
            if provider is not None:
                latency += provider(group.source_as)
            latencies[group.group_id] = latency
        return latencies
