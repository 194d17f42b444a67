"""The periodic beaconing driver.

This module glues the topology, the control services and the simulated
transport into the experiment the paper runs: every AS originates PCBs and
runs its RACs once per propagation interval (ten simulated minutes), PCBs
travel with link propagation delays, and after a configurable number of
periods the registered paths and transmission counts are available for the
Figure-8 analyses.

The driver also hosts pull-based disjointness orchestrators, advancing them
after every period so that the PD experiment can run inside the same
simulation.

Dynamic scenarios add a timeline of typed events
(:mod:`repro.simulation.events`).  Timeline events do not live on the
discrete-event scheduler: :class:`PeriodDriver` keeps them on a barrier
heap, runs the scheduler up to (not including) each event's time, applies
the events sharing that time and flushes their revocations once — so a
link failure scheduled mid-period really interrupts propagation: in-flight
PCBs on the link are lost, the ASes adjacent to the failure originate
signed :class:`~repro.core.messages.RevocationMessage`\\ s that flood
hop-by-hop through the simulated transport (each AS withdraws state
crossing the failed element when the revocation *arrives*, then
re-forwards it), and the
:class:`~repro.simulation.collector.ConvergenceCollector` measures how
watched AS pairs recover over the following periods — with withdrawal
timing topology-dependent instead of instantaneous.

The period structure exists once, in :class:`PeriodDriver`, written
against six operations plus a final gather.  :class:`BeaconingSimulation`
provides them over its own scheduler and services (the 1-shard case);
:class:`repro.parallel.ShardedBeaconingSimulation` provides them by
broadcasting the same commands to forked shard workers, each of which
answers with the operations of its own shard-mode
:class:`BeaconingSimulation`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.control_service import (
    ControlService,
    ControlServiceConfig,
    IrecControlService,
    RoundReport,
)
from repro.core.databases import PathService, RegisteredPath
from repro.core.local_view import LocalTopologyView
from repro.core.messages import RevocationMessage
from repro.core.pull import PullBasedDisjointnessOrchestrator, PullState
from repro.crypto.keys import KeyStore
from repro.exceptions import ConfigurationError, SimulationError, UnknownASError
from repro.scion.legacy import LegacyControlService
from repro.simulation.collector import ConvergenceCollector, MetricsCollector
from repro.simulation.engine import EventScheduler
from repro.simulation.events import (
    ASJoin,
    ASLeave,
    BeaconFlood,
    BeaconPeriodChange,
    ForwardingSuppression,
    GrayFailure,
    GrayRecovery,
    LinkFailure,
    LinkFlap,
    LinkRecovery,
    PolicySwap,
    RACSwap,
    RevocationForgery,
    RevocationReplay,
    ServiceRateChange,
    TimedEvent,
    TopologyGrowth,
)
from repro.simulation.failures import LinkState
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import AlgorithmSpec, ScenarioConfig
from repro.topology.entities import ASInfo, Interface, Link, LinkID
from repro.topology.geo import GeoCoordinate
from repro.topology.graph import Topology
from repro.topology.intra_domain import IntraDomainRegistry


@dataclass
class ShardContext:
    """Marks a :class:`BeaconingSimulation` as one shard of a sharded run.

    A shard materializes control services only for the ASes it owns and
    hands every fabric send towards a non-owned AS to ``exporter`` (the
    coordinator routes it to the owning shard, which replays the receiver
    side via
    :meth:`~repro.simulation.network.SimulatedTransport.inject_import`).
    A shard never calls :meth:`PeriodDriver.run_period`: the coordinator
    drives the period and invokes the shard's operations, so probes and
    the aggregated revocation flush see a consistent cross-shard state.

    Attributes:
        owned_ases: AS ids whose control services this shard runs.  The
            coordinator may add grown ASes mid-run.
        exporter: Sink for cross-shard fabric sends; receives the
            serialized-delivery tuples documented on the transport's
            ``exporter`` attribute.
    """

    owned_ases: Set[int]
    exporter: Callable[[tuple], None]


@dataclass
class SimulationResult:
    """Everything a finished simulation exposes to the analysis code.

    A sharded run returns the same type: its control services live (and
    die) in the worker processes, so ``services`` is empty there and the
    per-AS ``revocation_stats`` carry what the analyses read off services.
    """

    topology: Topology
    services: Dict[int, ControlService]
    collector: MetricsCollector
    round_reports: List[RoundReport] = field(default_factory=list)
    periods_run: int = 0
    final_time_ms: float = 0.0
    convergence: ConvergenceCollector = field(default_factory=ConvergenceCollector)
    link_state: LinkState = field(default_factory=LinkState)
    #: AS id → (revocations rejected as invalid, duplicate revocations).
    revocation_stats: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def service(self, as_id: int) -> ControlService:
        """Return the control service of ``as_id``."""
        try:
            return self.services[as_id]
        except KeyError:
            raise UnknownASError(as_id) from None

    def registered_paths(self, at_as: int, origin_as: int):
        """Return the paths registered at ``at_as`` towards ``origin_as``."""
        return self.service(at_as).path_service.paths_to(origin_as)

    @property
    def service_count(self) -> int:
        """Return how many control services the run ended with."""
        return len(self.revocation_stats)

    @property
    def rejected_invalid_total(self) -> int:
        """Return revocations rejected for bad signatures, all ASes."""
        return sum(rejected for rejected, _dupes in self.revocation_stats.values())

    @property
    def duplicates_total(self) -> int:
        """Return duplicate revocations dropped inside dedup windows."""
        return sum(dupes for _rejected, dupes in self.revocation_stats.values())


class PeriodDriver:
    """The one implementation of the beaconing period structure.

    Written against operations its two providers implement — the
    in-process :class:`BeaconingSimulation` and the fork coordinator
    :class:`repro.parallel.ShardedBeaconingSimulation`:

    * ``now_ms`` — the provider's simulated clock,
    * ``advance(target_ms, inclusive=True)`` — deliver in-flight messages
      up to (``inclusive``) or strictly before ``target_ms``,
    * ``originate(now_ms)`` / ``rac_round(now_ms)`` — the two per-period
      passes over the online ASes; the latter returns the
      :class:`RoundReport`\\ s in AS order,
    * ``apply_event(timed)`` — one timeline event's state changes,
    * ``flush(now_ms)`` — originate the revocations queued since the last
      flush, one aggregated message per origin,
    * ``probe(pairs, with_times=False)`` — ``(usable-path count per pair,
      first-registration times per pair or None, control messages sent,
      (dropped, marked, deferred) inbox totals)``; the counts are current
      at every call, however the provider maintains them,
    * ``gather()`` — ``(collector, link_state, revocation_stats)`` of the
      finished run.

    Timeline events are *barriers*: they sit on a heap ordered by
    ``(time, insertion)``, everything strictly earlier is delivered before
    a barrier applies, and all barriers sharing a timestamp apply before
    anything else scheduled at that time — the flush included, so same-time
    failures batch into one revocation per origin.
    """

    def __init__(self, topology: Topology, scenario: ScenarioConfig) -> None:
        self.topology = topology
        self.scenario = scenario
        #: Empty when the services live in shard workers.
        self.services: Dict[int, ControlService] = {}
        self.convergence = ConvergenceCollector()
        self.round_reports: List[RoundReport] = []
        self.watched_pairs: List[Tuple[int, int]] = []
        #: How many beaconing periods have completed so far.
        self.periods_run = 0
        self._interval_ms = scenario.propagation_interval_ms
        self._next_period_start_ms = 0.0
        #: (dropped, marked, deferred) totals at the last period boundary,
        #: for per-period overload trace deltas.
        self._overload_snapshot = (0, 0, 0)
        #: ``(time, seq, TimedEvent)``: timeline events take seqs in
        #: insertion order, flap toggles synthesized mid-run continue the
        #: sequence, so same-time barriers apply first-scheduled first.
        self._barriers: List[Tuple[float, int, TimedEvent]] = []
        self._barrier_seq = 0
        self._load_timeline()

    def _load_timeline(self) -> None:
        """Validate the scenario timeline and queue it as barriers.

        Impossible schedules (a recovery of a link that was never failed,
        a rejoin of an AS that never left) raise
        :class:`~repro.exceptions.ConfigurationError` from
        :meth:`ScenarioTimeline.validate`; failures, churn and swaps aimed
        at links or ASes the topology does not have raise
        :class:`~repro.exceptions.SimulationError` here instead of
        silently no-opping mid-run.
        """
        self.scenario.timeline.validate(self.topology)
        for timed in self.scenario.timeline:
            event = timed.event
            if isinstance(event, (LinkFailure, LinkRecovery)):
                if event.link_id not in self.topology.links:
                    raise SimulationError(
                        f"timeline event {timed.trace_label()!r} references an unknown link"
                    )
                targets: Tuple[int, ...] = ()
            elif isinstance(event, (ASLeave, ASJoin)):
                targets = (event.as_id,)
            elif isinstance(event, (PolicySwap, RACSwap)):
                targets = event.as_ids or ()
            else:
                targets = ()
            for as_id in targets:
                if as_id not in self.topology:
                    raise SimulationError(
                        f"timeline event {timed.trace_label()!r} targets unknown AS {as_id}"
                    )
            self._push_barrier(timed)

    def _push_barrier(self, timed: TimedEvent) -> None:
        heapq.heappush(self._barriers, (timed.time_ms, self._barrier_seq, timed))
        self._barrier_seq += 1

    def watch_pair(self, source_as: int, destination_as: int) -> None:
        """Track convergence of the paths registered at ``source_as``
        towards ``destination_as`` across dynamic events."""
        for as_id in (source_as, destination_as):
            if as_id not in self.topology:
                raise UnknownASError(as_id)
        pair = (source_as, destination_as)
        if pair not in self.watched_pairs:
            self.watched_pairs.append(pair)

    def end_period(self, now_ms: float) -> None:
        """Provider hook after a period's last delivery phase, before its
        convergence probe; the in-process simulation advances its pull
        orchestrators here."""

    def _run_to(self, target_ms: float) -> None:
        """Advance to ``target_ms``, applying the barriers on the way.

        Barriers not later than the clock — events that landed in a
        previous :meth:`run`'s final flush window, beyond that run's
        horizon — apply first, at the clock, before anything else of the
        continuing run; they were deferred, not dropped.
        """
        target_ms = max(target_ms, self.now_ms)
        barriers = self._barriers
        while barriers and barriers[0][0] <= target_ms:
            now_ms = max(barriers[0][0], self.now_ms)
            self.advance(now_ms, inclusive=False)
            # Popped one by one: a flap toggle pushed at this very
            # timestamp joins the group and shares its flush.
            while barriers and barriers[0][0] <= now_ms:
                self._apply_barrier(heapq.heappop(barriers)[2], now_ms)
            self.flush(now_ms)
        self.advance(target_ms)

    def _apply_barrier(self, timed: TimedEvent, now_ms: float) -> None:
        """Apply one timeline event between two watched-pair probes and
        feed the convergence collector."""
        event = timed.event
        before = self.probe(self.watched_pairs)[0]
        self.apply_event(timed)
        if isinstance(event, BeaconPeriodChange):
            self._interval_ms = event.interval_ms
        elif isinstance(event, LinkFlap):
            # Each toggle replays the full LinkFailure / LinkRecovery
            # machinery (revocations, negative-cache clearing, convergence
            # records), so a flapping link is loud like a scripted failure.
            for index, offset in enumerate(event.schedule):
                toggle = LinkRecovery if index % 2 else LinkFailure
                self._push_barrier(
                    TimedEvent(time_ms=now_ms + offset, event=toggle(link_id=event.link_id))
                )
        after, _times, messages_total, _overload = self.probe(self.watched_pairs)
        self.convergence.on_event(
            event_label=event.trace_label(),
            now_ms=now_ms,
            # Only a drop opens or deepens a disruption.
            pair_paths={
                pair: (count, after[pair])
                for pair, count in before.items()
                if after[pair] < count
            },
            messages_total=messages_total,
        )

    def run_period(self) -> List[RoundReport]:
        """Run one complete beaconing period.

        The period consists of: origination at every AS, delivery of all
        in-flight PCBs (their latencies are tiny compared to the period),
        one RAC round at every AS, another delivery phase so that freshly
        propagated PCBs reach their neighbours before the period ends, and
        finally an advancement step for every pull orchestrator.

        Timeline events apply inside the delivery phases (in time order
        with in-flight PCBs), offline ASes neither originate nor run
        rounds, and at the period boundary every watched pair is probed
        for convergence.  A period change applies from the next period
        onwards.
        """
        period_start_ms = self._next_period_start_ms
        mid_period_ms = period_start_ms + self._interval_ms / 2.0
        period_end_ms = period_start_ms + self._interval_ms

        self._run_to(period_start_ms)
        self.originate(self.now_ms)
        self._run_to(mid_period_ms)
        reports = self.rac_round(self.now_ms)
        self._run_to(period_end_ms)
        now_ms = self.now_ms
        self.end_period(now_ms)

        counts, registered_at, messages_total, overload = self.probe(
            self.watched_pairs, with_times=True
        )
        if self.watched_pairs:
            self.convergence.on_period_end(
                now_ms=now_ms,
                pair_paths=counts,
                messages_total=messages_total,
                pair_registered_at=registered_at,
            )
        if overload != self._overload_snapshot:
            previous = self._overload_snapshot
            self._overload_snapshot = overload
            # Only overloaded periods emit a trace line, so unlimited runs
            # (the PR-5 default) keep a bit-identical golden trace.
            self.convergence.on_overload(
                now_ms,
                dropped=overload[0] - previous[0],
                marked=overload[1] - previous[1],
                deferred=overload[2] - previous[2],
            )

        self.round_reports.extend(reports)
        self.periods_run += 1
        self._next_period_start_ms = period_end_ms
        return reports

    def run(self, periods: Optional[int] = None) -> SimulationResult:
        """Run ``periods`` beaconing periods (default: the scenario's count)."""
        total = periods if periods is not None else self.scenario.periods
        for _ in range(total):
            self.run_period()
        # Flush any remaining in-flight deliveries.  Timeline events in the
        # flush window are beyond the horizon — no period of this run would
        # observe their effects — and stay queued for a continuing run().
        self.advance(self._next_period_start_ms + 1.0)
        final_time_ms = self.now_ms
        collector, link_state, revocation_stats = self.gather()
        return SimulationResult(
            topology=self.topology,
            services=dict(self.services),
            collector=collector,
            round_reports=list(self.round_reports),
            periods_run=self.periods_run,
            final_time_ms=final_time_ms,
            convergence=self.convergence,
            link_state=link_state,
            revocation_stats=revocation_stats,
        )


class BeaconingSimulation(PeriodDriver):
    """Drives periodic beaconing over a topology according to a scenario."""

    def __init__(
        self,
        topology: Topology,
        scenario: ScenarioConfig,
        key_store: Optional[KeyStore] = None,
        intra_domain: Optional[IntraDomainRegistry] = None,
        shard: Optional[ShardContext] = None,
    ) -> None:
        super().__init__(topology, scenario)
        self.shard = shard
        self.key_store = key_store or KeyStore()
        self.intra_domain = intra_domain or IntraDomainRegistry()
        self.scheduler = EventScheduler()
        self.collector = MetricsCollector(period_ms=scenario.propagation_interval_ms)
        self.link_state = LinkState()
        for as_id in scenario.inbox_profiles:
            if as_id not in topology:
                raise ConfigurationError(
                    f"inbox_profiles targets unknown AS {as_id}"
                )
        self.transport = SimulatedTransport(
            topology=topology,
            scheduler=self.scheduler,
            collector=self.collector,
            processing_delay_ms=scenario.processing_delay_ms,
            link_state=self.link_state,
            batch_size=scenario.inbox_batch_size,
            inbox_profile=scenario.inbox_profile,
            inbox_profiles=dict(scenario.inbox_profiles),
            loss_seed=scenario.loss_seed,
            exporter=shard.exporter if shard is not None else None,
        )
        self.orchestrators: List[PullBasedDisjointnessOrchestrator] = []
        #: Callbacks ``(event, now_ms)`` invoked after a timeline event has
        #: been applied; the traffic engine subscribes here so failures
        #: break active flows the instant they fire.
        self.event_listeners: List = []
        #: Callbacks ``(as_id, message, removed, now_ms)`` invoked when a
        #: revocation message withdraws state at one AS — i.e. when the
        #: flood *reaches* that AS, not when the failure fired.  The
        #: traffic engine subscribes here to break flows at withdrawal
        #: time.
        self.revocation_listeners: List = []
        #: Failures queued by same-tick events for aggregated revocation
        #: origination: one flush per tick batches co-owned failures into
        #: multi-element messages (one flood per origin, not per element).
        self._pending_failed_links: List[Tuple] = []
        self._pending_failed_ases: List[int] = []
        #: Per-AS deployed RAC specs, kept in sync by RACSwap so a churned
        #: AS can be cold-restarted with its *current* deployment.
        self._deployed_specs: Dict[int, Dict[str, AlgorithmSpec]] = {}
        #: Usable-path count of every probed pair that nothing has moved
        #: since it was counted; :meth:`probe` recounts the pairs missing
        #: here.  Entries are evicted by the two sources of truth only: the
        #: invalidation listener on the path service of each watched source
        #: AS (``_probe_sources``), and the difference between the link
        #: state and the copy of it the previous probe saw.
        self._probe_counts: Dict[Tuple[int, int], int] = {}
        self._probe_sources: Dict[int, PathService] = {}
        self._probed_failed_links: Set[LinkID] = set()
        self._probed_offline_ases: Set[int] = set()
        self._build_services()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_services(self) -> None:
        for as_info in self.topology:
            if self.shard is None or as_info.as_id in self.shard.owned_ases:
                self._build_service(as_info)

    def _build_service(self, as_info: ASInfo) -> ControlService:
        """Build, wire and register the control service of one AS.

        Shared by initial construction and mid-run growth churn
        (:class:`~repro.simulation.events.TopologyGrowth`), so a grown AS
        gets exactly the deployment a founding AS would.
        """
        view = LocalTopologyView.from_topology(
            self.topology,
            as_info.as_id,
            intra_domain=self.intra_domain.model_for(as_info),
        )
        if as_info.as_id in self.scenario.legacy_ases:
            service: ControlService = LegacyControlService(
                view=view,
                key_store=self.key_store,
                transport=self.transport,
                verify_signatures=self.scenario.verify_signatures,
                revocation_dedup_window_ms=self.scenario.revocation_dedup_window_ms,
            )
        else:
            service = IrecControlService(
                view=view,
                key_store=self.key_store,
                transport=self.transport,
                grouping_policy=self.scenario.grouping_policy,
                config=ControlServiceConfig(
                    verify_signatures=self.scenario.verify_signatures,
                    revocation_dedup_window_ms=self.scenario.revocation_dedup_window_ms,
                    register_down_segments=self.scenario.register_down_segments,
                ),
            )
            specs = self._deployed_specs.setdefault(as_info.as_id, {})
            for spec in self.scenario.algorithms:
                self._install_rac(service, spec)
                specs[spec.rac_id] = spec
        # The serving tier reads simulated time from the scheduler, so
        # cached query responses expire on the simulation's clock.
        service.query_frontend.clock = lambda: self.scheduler.now_ms
        service.on_withdrawal = self._withdrawal_notifier(as_info.as_id)
        self.services[as_info.as_id] = service
        self.transport.register(service)
        return service

    @staticmethod
    def _install_rac(service: IrecControlService, spec: AlgorithmSpec) -> None:
        """Install one RAC described by ``spec`` (deployment and hot-swap)."""
        if spec.on_demand:
            service.add_on_demand_rac(
                rac_id=spec.rac_id,
                max_paths_per_interface=spec.max_paths_per_interface,
                registration_limit=spec.registration_limit,
            )
        else:
            assert spec.factory is not None  # validated by AlgorithmSpec
            service.add_static_rac(
                rac_id=spec.rac_id,
                algorithm=spec.factory(),
                max_paths_per_interface=spec.max_paths_per_interface,
                registration_limit=spec.registration_limit,
                use_interface_groups=spec.use_interface_groups,
                use_targets=spec.use_targets,
            )

    # ------------------------------------------------------------------
    # orchestrators (pull-based disjointness)
    # ------------------------------------------------------------------
    def add_pull_disjointness(
        self,
        origin_as: int,
        target_as: int,
        desired_paths: int = 20,
        seed_paths: Sequence = (),
    ) -> PullBasedDisjointnessOrchestrator:
        """Attach a PD orchestrator at ``origin_as`` towards ``target_as``."""
        service = self.services.get(origin_as)
        if not isinstance(service, IrecControlService):
            raise ConfigurationError(
                f"AS {origin_as} does not run IREC and cannot originate pull-based beacons"
            )
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=service,
            target_as=target_as,
            desired_paths=desired_paths,
            seed_paths=tuple(seed_paths),
        )
        self.orchestrators.append(orchestrator)
        return orchestrator

    # ------------------------------------------------------------------
    # dynamic events and convergence
    # ------------------------------------------------------------------
    def add_event_listener(self, listener) -> None:
        """Register a ``(event, now_ms)`` callback fired after each applied
        timeline event (failures, recoveries, churn, swaps)."""
        self.event_listeners.append(listener)

    def _usable_paths(self, source_as: int, destination_as: int) -> List[RegisteredPath]:
        """Return the registered paths of the pair that are usable right now.

        A registered path is usable when the watched endpoints are online
        and every inter-domain link on its segment is currently available.
        """
        link_state = self.link_state
        if not (link_state.is_as_up(source_as) and link_state.is_as_up(destination_as)):
            return []
        return [
            path
            for path in self.services[source_as].path_service.paths_to(destination_as)
            if link_state.path_available(path.segment.links())
        ]

    def usable_path_count(self, source_as: int, destination_as: int) -> int:
        """Return how many registered paths of the pair are usable right now
        (a full recount; :meth:`probe` serves the maintained value)."""
        return len(self._usable_paths(source_as, destination_as))

    def _usable_registration_times(
        self, source_as: int, destination_as: int
    ) -> Tuple[float, ...]:
        """Return when each currently *usable* path of the pair appeared.

        The sub-period recovery timestamps.  First-registration times are
        used on purpose: a withdrawn path that returns is a fresh entry
        (its ``registered_at_ms`` post-dates the disruption), while a
        surviving path that is merely re-registered keeps its original
        timestamp — so routine periodic merges can never back-date a
        recovery (``last_registered_at_ms`` is refreshed by exactly those
        merges and would).
        """
        return tuple(
            path.registered_at_ms for path in self._usable_paths(source_as, destination_as)
        )

    def probe(self, pairs: Sequence[Tuple[int, int]], with_times: bool = False):
        """Probe ``pairs`` and the collector totals (see :class:`PeriodDriver`).

        Counts are maintained state: a pair is recounted only when it was
        never probed, a path towards its origin was registered, merged,
        withdrawn or purged at its source since it was counted, or a link
        one of its registered paths crosses (or any AS) changed
        availability since the previous probe.  Event probes are
        counts-only; the registration times are gathered in a full pass
        once per period end (``with_times``).
        """
        self._evict_moved_counts()
        cached = self._probe_counts
        counts: Dict[Tuple[int, int], int] = {}
        for pair in pairs:
            count = cached.get(pair)
            if count is None:
                self._listen_at(pair[0])
                # Looked up per recount: a span patched onto the instance
                # attribute sees exactly the pairs recounted.
                count = cached[pair] = self.usable_path_count(*pair)
            counts[pair] = count
        collector = self.collector
        return (
            counts,
            {pair: self._usable_registration_times(*pair) for pair in pairs}
            if with_times
            else None,
            collector.control_messages_total(),
            (
                collector.inbox_dropped_total(),
                collector.inbox_marked_total(),
                collector.inbox_deferred_total(),
            ),
        )

    def _listen_at(self, source_as: int) -> None:
        """Subscribe, once per watched source AS, to its path service."""
        if source_as in self._probe_sources:
            return
        path_service = self.services[source_as].path_service
        cached = self._probe_counts
        path_service.add_invalidation_listener(
            lambda origin_as: cached.pop((source_as, origin_as), None)
        )
        self._probe_sources[source_as] = path_service

    def _evict_moved_counts(self) -> None:
        """Evict the counts a link-state change since the last probe may
        have moved.

        Compared by value with this simulation's own copy, so a change made
        directly on :attr:`link_state` is seen and a failure restored
        between two probes evicts nothing.  A changed link touches the
        pairs whose source has a registered path across it (paths that
        came or went in between evicted their pair themselves); a changed
        offline set takes whole ASes' links and endpoints with it and is
        rare: everything is recounted.
        """
        link_state = self.link_state
        cached = self._probe_counts
        if link_state.offline_ases != self._probed_offline_ases:
            self._probed_offline_ases = set(link_state.offline_ases)
            cached.clear()
        if link_state.failed_links != self._probed_failed_links:
            moved = link_state.failed_links ^ self._probed_failed_links
            self._probed_failed_links = set(link_state.failed_links)
            for source_as, path_service in self._probe_sources.items():
                for link in moved:
                    for origin_as in path_service.origins_crossing_link(link):
                        cached.pop((source_as, origin_as), None)

    def apply_event(self, timed: TimedEvent) -> None:
        """Apply one timeline event's state changes, then tell the listeners.

        In a sharded run every shard applies its replica of the event,
        guarded to the services it owns (``as_id in self.services``); the
        probes and convergence bookkeeping around it are the driver's.
        """
        event = timed.event
        now_ms = self.scheduler.now_ms
        if isinstance(event, LinkFailure):
            self.link_state.fail_link(event.link_id)
            self._queue_revocations(failed_link=event.link_id)
        elif isinstance(event, LinkRecovery):
            self.link_state.restore_link(event.link_id)
            # The element is alive again: every service forgets its
            # negative-cache entry so fresh beacons over it are admitted
            # instead of bounced.
            for service in self._services_in_order():
                service.revocations.clear_revoked_link(event.link_id)
        elif isinstance(event, ASLeave):
            self.link_state.set_as_offline(event.as_id)
            # The departing AS restarts cold; its neighbours detect the
            # loss and originate revocations, so everyone *reachable*
            # withdraws state crossing it as the flood arrives.
            if event.as_id in self.services:
                self._cold_restart(self.services[event.as_id])
            self._queue_revocations(failed_as=event.as_id)
        elif isinstance(event, ASJoin):
            self.link_state.set_as_online(event.as_id)
            for service in self._services_in_order():
                service.revocations.clear_revoked_as(event.as_id)
        elif isinstance(event, ServiceRateChange):
            for service in self._event_targets(event.as_ids):
                self.transport.set_inbox_budget(service.as_id, event.budget_per_tick)
        elif isinstance(event, BeaconFlood):
            if self._attacks(event.attacker_as):
                for _ in range(event.bursts):
                    self.services[event.attacker_as].originate(now_ms=now_ms)
        elif isinstance(event, PolicySwap):
            # Both service flavours expose set_policies (the legacy ingress
            # gateway honours admission policies too).
            for service in self._event_targets(event.as_ids):
                service.set_policies(list(event.policies))
        elif isinstance(event, RACSwap):
            for service in self._event_targets(event.as_ids):
                if not isinstance(service, IrecControlService):
                    if event.as_ids is None:
                        continue  # broadcast swaps skip legacy ASes
                    raise SimulationError(
                        f"RAC swap explicitly targets AS {service.as_id}, "
                        "which runs the legacy control service"
                    )
                if not service.remove_rac(event.target_rac_id):
                    if event.as_ids is None:
                        # Broadcast swaps tolerate ASes that (no longer)
                        # deploy the target RAC — e.g. after an earlier
                        # per-AS swap — just as they tolerate legacy ASes.
                        continue
                    raise SimulationError(
                        f"RAC swap targets {event.target_rac_id!r}, which is not "
                        f"deployed at AS {service.as_id}"
                    )
                self._install_rac(service, event.spec)
                specs = self._deployed_specs.setdefault(service.as_id, {})
                specs.pop(event.target_rac_id, None)
                specs[event.spec.rac_id] = event.spec
        elif isinstance(event, LinkFlap):
            self._start_flap(event, now_ms)
        elif isinstance(event, GrayFailure):
            # Deliberately *no* revocation, no negative caching and no
            # availability change: the fault is silent by definition, so
            # the control plane keeps advertising paths across the link
            # and only end-host-observed quality reveals it.
            self.link_state.set_gray(event.link_id, event.drop_rate)
        elif isinstance(event, GrayRecovery):
            self.link_state.clear_gray(event.link_id)
        elif isinstance(event, RevocationForgery):
            if self._attacks(event.attacker_as):
                self._forge_revocations(event, now_ms)
        elif isinstance(event, RevocationReplay):
            if self._attacks(event.attacker_as):
                self._replay_revocations(event)
        elif isinstance(event, ForwardingSuppression):
            for service in self._event_targets(event.as_ids):
                service.set_revocation_forwarding(not event.suppress)
        elif isinstance(event, TopologyGrowth):
            self._grow_topology(event)
        elif not isinstance(event, BeaconPeriodChange):
            # (The period length is driver state: PeriodDriver applies it.)
            raise SimulationError(f"unsupported scenario event {event!r}")
        for listener in self.event_listeners:
            listener(event, now_ms)

    def _cold_restart(self, service: ControlService) -> None:
        """Wipe a departing AS's volatile control-plane state.

        A churned AS comes back as a freshly booted deployment: empty
        ingress database and path service, a cold verified-prefix cache
        and — for IREC ASes — freshly instantiated RACs of its current
        deployment (algorithm state must not survive the restart).
        """
        service.ingress.database.remove_matching(lambda _stored: True)
        service.path_service.remove_matching(lambda _path: True)
        service.ingress.verified_prefixes.clear()
        if isinstance(service, IrecControlService):
            service.pull_results.clear()
            for spec in self._deployed_specs.get(service.as_id, {}).values():
                service.remove_rac(spec.rac_id)
                self._install_rac(service, spec)

    def _event_targets(self, as_ids: Optional[Tuple[int, ...]]) -> List[ControlService]:
        """Return the local services an event addresses (``None``: all), in
        AS order.  The driver validated explicit targets up front; in a
        sharded run the ones on other shards are theirs to apply."""
        if as_ids is None:
            return self._services_in_order()
        return [self.services[as_id] for as_id in sorted(as_ids) if as_id in self.services]

    def _attacks(self, attacker_as: int) -> bool:
        """Return whether a Byzantine event's attacker acts here and now."""
        return attacker_as in self.services and self.link_state.is_as_up(attacker_as)

    def _queue_revocations(
        self, failed_link: Optional[Tuple] = None, failed_as: Optional[int] = None
    ) -> None:
        """Queue a failure for aggregated revocation origination.

        Failures are not revoked one message per element: every failure of
        the current tick is collected, and one :meth:`flush` — run by the
        driver after the tick's last timeline event — has each adjacent AS originate a single
        :class:`~repro.core.messages.RevocationMessage` batching *all*
        the elements it detected.  A revocation storm of N simultaneous
        failures therefore costs each origin one flood, not N.
        """
        if failed_link is not None:
            self._pending_failed_links.append(failed_link)
        if failed_as is not None:
            self._pending_failed_ases.append(failed_as)

    def flush(self, now_ms: float) -> None:
        """Originate the queued failures' revocations, one message per origin.

        The endpoints of each failed link (and the neighbours of each
        departed AS) detect those failures locally: each origin withdraws
        its own state immediately and floods one signed message naming
        every element it detected this tick, hop-by-hop through the
        transport.  Every other AS withdraws when (and if) a copy arrives
        — replacing the old instantaneous counter flood with real,
        propagation-limited control-plane traffic.
        """
        failed_links, self._pending_failed_links = self._pending_failed_links, []
        failed_ases, self._pending_failed_ases = self._pending_failed_ases, []
        per_origin: Dict[int, Tuple[List[Tuple], List[int]]] = {}
        for link in failed_links:
            (as_a, _if_a), (as_b, _if_b) = link
            for as_id in sorted({as_a, as_b}):
                per_origin.setdefault(as_id, ([], []))[0].append(link)
        for gone_as in failed_ases:
            for as_id in self.topology.neighbors(gone_as):
                per_origin.setdefault(as_id, ([], []))[1].append(gone_as)
        for as_id in sorted(per_origin):
            # In a sharded run another shard may own this origin; it queued
            # (and will flush) the same failure from its own replica of the
            # event, so exactly one shard originates per origin.
            if as_id not in self.services or not self.link_state.is_as_up(as_id):
                continue
            links, ases = per_origin[as_id]
            self.collector.record_revocation_batch(len(links) + len(ases))
            self.services[as_id].originate_revocation(
                now_ms=now_ms,
                failed_links=tuple(links),
                failed_ases=tuple(ases),
            )

    # ------------------------------------------------------------------
    # adversarial & gray-failure events
    # ------------------------------------------------------------------
    def _start_flap(self, event: LinkFlap, now_ms: float) -> None:
        """Install a flap's loss rates and schedule their removal.

        The on/off toggles are barriers the driver synthesizes; only the
        per-direction loss — fabric state, like the dice that roll it —
        lives here.
        """
        key = event.link_id
        (as_a, _if_a), (as_b, _if_b) = key
        if event.loss_ab:
            self.link_state.set_link_loss(key, as_b, event.loss_ab)
        if event.loss_ba:
            self.link_state.set_link_loss(key, as_a, event.loss_ba)
        if event.loss_ab or event.loss_ba:
            if event.duration_ms is not None:
                clear_at = now_ms + event.duration_ms
            else:
                clear_at = now_ms + event.schedule[-1]
            self.scheduler.schedule_at(
                clear_at,
                lambda _t, _key=key: self.link_state.clear_link_loss(_key),
            )

    def _forge_revocations(self, event: RevocationForgery, now_ms: float) -> None:
        """Inject revocations that claim another AS's identity.

        The attacker signs with its *own* key while naming
        ``claimed_origin`` as the message origin, so receivers that verify
        signatures reject every copy (``rejected_invalid``) without
        marking it seen and without withdrawing anything; with
        verification disabled the forgery succeeds — the scenario knob for
        quantifying what signature checking buys.
        """
        attacker = self.services[event.attacker_as]
        send = self.transport.send_message
        interface_ids = attacker.view.interface_ids()
        for index in range(event.count):
            forged = RevocationMessage(
                origin_as=event.claimed_origin,
                sequence=event.sequence_base + index,
                created_at_ms=now_ms,
                failed_link=event.link_id,
            ).signed(attacker.builder.signer)
            for interface_id in interface_ids:
                send(event.attacker_as, interface_id, forged)

    def _replay_revocations(self, event: RevocationReplay) -> None:
        """Re-flood revocations the attacker has already processed.

        Replayed copies carry their original authentic signatures and
        ``(origin, sequence)`` keys, so honest receivers inside the dedup
        window drop them as ``duplicates`` — no state changes, only
        counter noise.  Cached messages are replayed in sorted key order
        (cycling when ``count`` exceeds the cache), keeping the injected
        traffic deterministic.
        """
        attacker = self.services[event.attacker_as]
        state = attacker.revocations
        cached: Dict[Tuple[int, int], RevocationMessage] = {}
        for message, _cached_at in state.revoked_links.values():
            cached[message.key] = message
        for message, _cached_at in state.revoked_ases.values():
            cached[message.key] = message
        if not cached:
            return
        replayable = [cached[key] for key in sorted(cached)]
        send = self.transport.send_message
        interface_ids = attacker.view.interface_ids()
        for index in range(event.count):
            message = replayable[index % len(replayable)]
            for interface_id in interface_ids:
                send(event.attacker_as, interface_id, message)

    def _grow_topology(self, event: TopologyGrowth) -> None:
        """Grow the topology: a brand-new AS attaches and comes online.

        Adds the AS and its links to the live topology, patches the
        attachment ASes' local views (their next origination round uses
        the new interface), and builds + registers a control service so
        the newcomer participates from the next beaconing period on.
        """
        latitude, longitude = event.location
        location = GeoCoordinate(latitude=latitude, longitude=longitude)
        new_info = ASInfo(as_id=event.new_as, name=f"grown-{event.new_as}")
        for index in range(1, len(event.attach_to) + 1):
            new_info.add_interface(
                Interface(as_id=event.new_as, interface_id=index, location=location)
            )
        self.topology.add_as(new_info)
        for index, neighbor_as in enumerate(event.attach_to, start=1):
            neighbor_info = self.topology.as_info(neighbor_as)
            neighbor_if = max(neighbor_info.interfaces, default=0) + 1
            existing = neighbor_info.interface_ids()
            neighbor_location = (
                neighbor_info.interface(existing[0]).location if existing else location
            )
            neighbor_info.add_interface(
                Interface(
                    as_id=neighbor_as,
                    interface_id=neighbor_if,
                    location=neighbor_location,
                )
            )
            link = Link(
                interface_a=(event.new_as, index),
                interface_b=(neighbor_as, neighbor_if),
                latency_ms=event.latency_ms,
                bandwidth_mbps=event.bandwidth_mbps,
                relationship=event.relationship,
            )
            self.topology.add_link(link)
            neighbor_service = self.services.get(neighbor_as)
            if neighbor_service is not None:
                neighbor_service.view.attach_link(neighbor_if, link)
        if self.shard is None or event.new_as in self.shard.owned_ases:
            # In a sharded run the coordinator designates exactly one
            # owning shard for the newcomer (adding it to that shard's
            # owned set before dispatch); every other shard only extends
            # its topology replica and exports traffic towards it.
            self._build_service(new_info)

    def add_revocation_listener(self, listener) -> None:
        """Register an ``(as_id, message, removed, now_ms)`` callback fired
        whenever a revocation message withdraws state at an AS."""
        self.revocation_listeners.append(listener)

    def _withdrawal_notifier(self, as_id: int):
        """Return the per-service withdrawal callback fanning out to listeners."""

        def notify(message, removed, now_ms: float, _as_id=as_id) -> None:
            for listener in self.revocation_listeners:
                listener(_as_id, message, removed, now_ms)

        return notify

    # ------------------------------------------------------------------
    # the driver's operations, in process
    # ------------------------------------------------------------------
    @property
    def now_ms(self) -> float:
        """Return the simulated clock (the scheduler's)."""
        return self.scheduler.now_ms

    def advance(self, target_ms: float, inclusive: bool = True) -> None:
        """Deliver everything in flight up to ``target_ms``."""
        self.scheduler.run_until(target_ms, inclusive)

    def originate(self, now_ms: float) -> None:
        """Originate PCBs at every online AS."""
        for service in self._services_in_order():
            if self.link_state.is_as_up(service.as_id):
                service.originate(now_ms=now_ms)

    def rac_round(self, now_ms: float) -> List[RoundReport]:
        """Run one RAC round at every online AS; return the IREC reports."""
        reports: List[RoundReport] = []
        for service in self._services_in_order():
            if not self.link_state.is_as_up(service.as_id):
                continue
            report = service.run_round(now_ms=now_ms)
            if isinstance(report, RoundReport):
                reports.append(report)
        return reports

    def end_period(self, now_ms: float) -> None:
        """Start or advance every pull orchestrator of an online AS."""
        for orchestrator in self.orchestrators:
            if not self.link_state.is_as_up(orchestrator.service.as_id):
                continue
            if orchestrator.state is PullState.IDLE:
                orchestrator.start(now_ms=now_ms)
            else:
                orchestrator.advance(now_ms=now_ms)

    def gather(self):
        """Return ``(collector, link_state, per-AS revocation stats)``."""
        return (
            self.collector,
            self.link_state,
            {
                as_id: (service.revocations.rejected_invalid, service.revocations.duplicates)
                for as_id, service in sorted(self.services.items())
            },
        )

    def _services_in_order(self) -> List[ControlService]:
        return [self.services[as_id] for as_id in sorted(self.services)]
