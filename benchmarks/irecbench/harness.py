"""One irecbench run, in process: set-up, the three measured phases, the checks.

Everything here drives the program from outside through public functions of
``repro``.  The only thing installed on program objects in an untraced run is
the pair of instance-level *tick wrappers* on every control service's
``run_round`` and ``on_message_batch`` (both are looked up dynamically by
``BeaconingSimulation.run_period`` / ``SimulatedTransport``), which give the
``RefClock`` a chance to close a chunk inside a period; they call straight
through and are digest-neutral (``test_irecbench.py`` pins that).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.query import PathQuery
from repro.crypto.hashing import perf_counters
from repro.simulation.beaconing import BeaconingSimulation

from probe import RefClock
from workloads import TOY_PLAN, Inputs, Plan, Workload

#: Periods after which the hooked simulation is compared with an unhooked twin.
PREFIX_PERIODS = 2

#: One lookup in this many is compared with the oracle.
ORACLE_EVERY = 64


# ----------------------------------------------------------------------
# building and hooking the simulation
# ----------------------------------------------------------------------
def build_simulation(inputs: Inputs) -> BeaconingSimulation:
    """Construct the simulation the inputs describe (no hooks)."""
    sim = BeaconingSimulation(inputs.topology, inputs.scenario)
    for pair in inputs.watched_pairs:
        sim.watch_pair(*pair)
    for origin_as, target_as, desired in inputs.pull_requests:
        sim.add_pull_disjointness(origin_as, target_as, desired_paths=desired)
    return sim


_TICKED = ("run_round", "on_message_batch")


def install_ticks(sim: BeaconingSimulation, tick: Callable[[], None]) -> None:
    """Call ``tick`` after every service round and every drained inbox batch."""

    def ticking(inner):
        def call(*args, **kwargs):
            result = inner(*args, **kwargs)
            tick()
            return result

        return call

    for service in sim.services.values():
        for name in _TICKED:
            setattr(service, name, ticking(getattr(service, name)))


def remove_ticks(sim: BeaconingSimulation) -> None:
    """Undo :func:`install_ticks` (instance attributes shadow the class)."""
    for service in sim.services.values():
        for name in _TICKED:
            delattr(service, name)


# ----------------------------------------------------------------------
# output digests
# ----------------------------------------------------------------------
def simulation_digest(sim: BeaconingSimulation) -> str:
    """SHA-256 over what the simulation has produced so far."""
    collector = sim.collector
    sha = hashlib.sha256()
    sha.update(
        repr(
            (
                collector.total_sent,
                collector.total_dropped,
                collector.total_revocations,
                sim.periods_run,
                sim.scheduler.now_ms,
            )
        ).encode("ascii")
    )
    sha.update(sim.convergence.trace_text().encode("utf-8"))
    for as_id in sorted(sim.services):
        paths = sim.services[as_id].path_service.all_paths()
        sha.update(b"|%d:" % as_id)
        for digest in sorted(path.segment.digest() for path in paths):
            sha.update(digest.encode("ascii"))
    return sha.hexdigest()


def registered_paths_are_sound(sim: BeaconingSimulation) -> bool:
    """Every registered path ends here (or, as a down-segment, starts here),
    is loop-free and runs over links the topology has -- true for any seed."""
    links = sim.topology.links
    for as_id, service in sim.services.items():
        for path in service.path_service.all_paths():
            segment = path.segment
            as_path = segment.as_path()
            if as_id not in (segment.last_as, segment.origin_as):
                return False
            if len(set(as_path)) != len(as_path):
                return False
            if any(link not in links for link in segment.links()):
                return False
    return True


# ----------------------------------------------------------------------
# ledgers: the program's own public counters, summed over all ASes
# ----------------------------------------------------------------------
_INGRESS_FIELDS = (
    "received",
    "accepted",
    "duplicates",
    "rejected_signature",
    "rejected_policy",
    "rejected_expired",
    "full_verifications",
    "incremental_verifications",
)
_EGRESS_FIELDS = ("originated", "propagated", "registered", "suppressed_duplicates")
_REVOCATION_FIELDS = ("received", "duplicates", "originated", "forwarded")
_QUERY_FIELDS = ("lookups", "hits", "misses", "invalidations")


def read_ledgers(sim: BeaconingSimulation) -> Dict[str, int]:
    """Snapshot every exact counter the per-layer metrics are deltas of."""
    ledger: Dict[str, int] = {}
    services = list(sim.services.values())
    for name in _INGRESS_FIELDS:
        ledger["ingress." + name] = sum(getattr(s.ingress.stats, name) for s in services)
    for name in _EGRESS_FIELDS:
        ledger["egress." + name] = sum(getattr(s.egress.stats, name) for s in services)
    for name in _REVOCATION_FIELDS:
        ledger["revocation." + name] = sum(getattr(s.revocations, name) for s in services)
    ledger["revocation.applied"] = sum(len(s.revocations.applied_at) for s in services)
    for name in _QUERY_FIELDS:
        ledger["query." + name] = sum(s.query_frontend.counters()[name] for s in services)
    for name, value in perf_counters().items():
        ledger["crypto." + name] = value
    collector = sim.collector
    ledger["net.sent"] = collector.total_sent
    ledger["net.dropped"] = collector.total_dropped
    ledger["net.revocations"] = collector.total_revocations
    ledger["engine.events"] = sim.scheduler.processed_events
    return ledger


def ledger_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in after}


def rss_mb() -> float:
    """Current resident set size in MiB (Linux; 0.0 where unavailable)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as statm:
            pages = int(statm.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


def peak_rss_mb() -> float:
    """Process high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    """Operations and checks of one measured phase."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def fail_all(self) -> None:
        """A wrong output fails every operation of the phase."""
        self.correct = False
        self.failed = self.attempted


@dataclass
class RunResult:
    """Everything one run measured; ``run.py`` turns it into metrics."""

    plan: Plan
    clock: RefClock
    #: (reference s, raw s) of every set-up of the run; ``setup_s`` is the median.
    setups: List[Tuple[float, float]] = field(default_factory=list)
    warmup_periods: int = 0
    steady_gap: float = 0.0
    timers: Dict[str, float] = field(default_factory=dict)
    phases: Dict[str, PhaseResult] = field(default_factory=dict)
    pcbs_sent: int = 0
    rac_candidates: int = 0
    lookups: int = 0
    query_writes: int = 0
    digest: str = ""
    prefix_digest: str = ""
    rss_after: Dict[str, float] = field(default_factory=dict)
    #: High-water RSS when the last measured phase ended -- before the output
    #: check, which may run a second simulation in this process.
    peak_rss_mb: float = 0.0
    ledgers: Dict[str, Dict[str, int]] = field(default_factory=dict)
    rac_reports: List = field(default_factory=list)
    #: Wall-clock cost of one recorded span (traced runs only).
    span_cost_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(phase.attempted for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases.values())

    @property
    def correct(self) -> bool:
        return all(phase.correct for phase in self.phases.values())


def oracle_paths(service, query: PathQuery, now_ms: float) -> Tuple:
    """What ``query`` must return: ``paths_to`` filtered by ``admits``."""
    horizon = now_ms + service.path_service.expiry_margin_ms
    admitted = [
        path
        for path in service.path_service.paths_to(query.origin_as)
        if not path.segment.is_expired(horizon) and query.admits(path)
    ]
    return tuple(admitted if query.limit is None else admitted[: query.limit])


def query_mix(sim: BeaconingSimulation, inputs: Inputs) -> Dict[int, List[Tuple[List[PathQuery], object]]]:
    """AS -> the ``(group of lookups, path to rewrite)`` pairs one query pass issues.

    Without writes that is every group of the inputs, the path ``None``.
    With writes it is the groups whose origin the AS has a registered path
    to, each with the first such path: the write withdraws that one path
    and registers it again, which invalidates what the frontend has cached
    for the origin, so all four lookups that follow miss.  Every group then
    costs the same -- one write, four misses -- whatever the seed; the
    seed decides how many groups there are.  Computed once: a write leaves
    the set of registered paths as it found it.
    """
    mix: Dict[int, List[Tuple[List[PathQuery], object]]] = {}
    for as_id in sorted(inputs.query_groups):
        groups = inputs.query_groups[as_id]
        if not inputs.query_writes:
            mix[as_id] = [(group, None) for group in groups]
            continue
        paths_to = sim.services[as_id].path_service.paths_to
        mix[as_id] = [
            (group, paths[0]) for group in groups for paths in (paths_to(group[0].origin_as),) if paths
        ]
    return mix


def query_pass(sim: BeaconingSimulation, mix, tick, sampled: List[int]):
    """Issue every lookup of ``mix`` once; return (lookups, sizes, wrong, writes).

    One lookup of every sixteenth group -- one in ``ORACLE_EVERY`` -- is
    compared with the oracle; ``sampled[0]`` numbers groups across passes so
    the sample walks through the mix instead of hitting the same lookups.
    """
    lookups = sizes = wrong = written = 0
    now_ms = sim.scheduler.now_ms
    stride = ORACLE_EVERY // 4
    for as_id, pairs in mix.items():
        service = sim.services[as_id]
        serve = service.query_frontend.query
        path_service = service.path_service
        for group, path in pairs:
            if path is not None:
                if path_service.remove_matching(lambda candidate: candidate is path) != 1:
                    wrong += 1
                path_service.register(path)
                written += 1
            results = [serve(query) for query in group]
            lookups += len(results)
            for result in results:
                sizes += len(result.paths)
            sampled[0] += 1
            if sampled[0] % stride == 0:
                pick = (sampled[0] // stride) % len(group)
                if results[pick].paths != oracle_paths(service, group[pick], now_ms):
                    wrong += 1
        tick()
    return lookups, sizes, wrong, written


def rac_pass(sim: BeaconingSimulation, tick) -> Tuple[int, int, int, List]:
    """Run every RAC of every AS once over its warmed ingress database."""
    candidates = selections = failed = 0
    reports = []
    for as_id in sorted(sim.services):
        service = sim.services[as_id]
        for rac in service.racs:
            _selected, report = rac.process(
                database=service.ingress.database,
                egress_interfaces=service.view.interface_ids(),
                intra_latency_ms=service.view.intra_latency_ms,
                local_as=service.as_id,
            )
            candidates += report.candidates
            selections += report.selections
            failed += report.failed_buckets
            reports.append(report)
            tick()
    return candidates, selections, failed, reports


@dataclass
class SetUp:
    """One timed set-up: the warmed simulation and what reaching it cost."""

    sim: BeaconingSimulation
    inputs: Inputs
    #: Reference and raw wall seconds from input generation to the last warm-up period.
    ref_s: float
    raw_s: float
    #: Raw seconds of input generation and of simulation construction.
    generate_s: float
    construct_s: float
    #: Reference seconds of the warm-up periods alone.
    warmup_ref_s: float
    #: Digest of the simulation after ``PREFIX_PERIODS`` periods.
    prefix_digest: str
    #: How level the PCB count was when warm-up ended: the last warm-up
    #: period's count against the one before.
    steady_gap: float


def set_up(workload: Workload, seed: int, toy: bool, clock: RefClock) -> SetUp:
    """Generate the inputs, construct the simulation, run the warm-up periods.

    Booked under the clock's ``"setup"`` phase; leaves the clock in
    ``"untimed"``.  The simulation comes back with the tick wrappers on.
    """
    timer = time.perf_counter
    clock.phase("setup")
    ref_before, raw_before = clock.ref_s_of("setup"), clock.raw_s_of("setup")

    begin = timer()
    inputs = workload.build(seed, toy)
    generate_s = timer() - begin
    clock.tick()

    begin = timer()
    sim = build_simulation(inputs)
    construct_s = timer() - begin
    install_ticks(sim, clock.tick)

    # Warm-up: run to the expiry-driven steady state.
    clock.phase("setup")
    warm_begin_ref = clock.ref_s_of("setup")
    sent = [0]
    prefix_digest = ""
    for _ in range(inputs.warmup_periods):
        sim.run_period()
        sent.append(sim.collector.total_sent)
        if sim.periods_run == PREFIX_PERIODS:
            prefix_digest = simulation_digest(sim)
    last, before = sent[-1] - sent[-2], sent[-2] - sent[-3]
    clock.phase("untimed")
    return SetUp(
        sim=sim,
        inputs=inputs,
        ref_s=clock.ref_s_of("setup") - ref_before,
        raw_s=clock.raw_s_of("setup") - raw_before,
        generate_s=generate_s,
        construct_s=construct_s,
        warmup_ref_s=clock.ref_s_of("setup") - warm_begin_ref,
        prefix_digest=prefix_digest,
        steady_gap=abs(last - before) / max(1, before),
    )


def execute(
    workload: Workload,
    seed: int,
    toy: bool,
    clock: RefClock,
    tracer=None,
) -> RunResult:
    """Run set-up and the three measured phases of one workload.

    ``clock`` is already started (the runner books its imports under
    ``"import"``).  With a ``tracer`` the boundary wrappers go on after
    warm-up, so set-up and the warm-up periods stay untraced.
    """
    plan = TOY_PLAN if toy else workload.plan
    result = RunResult(plan=plan, clock=clock)

    first = set_up(workload, seed, toy, clock)
    sim, inputs = first.sim, first.inputs
    result.setups.append((first.ref_s, first.raw_s))
    result.timers["topology.generate_s"] = first.generate_s
    result.timers["simulation.beaconing.construct_s"] = first.construct_s
    result.timers["setup.warmup_ref_s"] = first.warmup_ref_s
    result.prefix_digest = first.prefix_digest
    result.steady_gap = first.steady_gap
    result.warmup_periods = sim.periods_run
    result.rss_after["setup"] = rss_mb()

    if tracer is not None:
        remove_ticks(sim)
        tracer.install(sim)
        install_ticks(sim, clock.tick)
        clock.probe_listeners.append(tracer.exclude)
        result.span_cost_s = tracer.span_cost_s()

    # -- phase 2: beaconing ------------------------------------------------
    phase = result.phases["beaconing"] = PhaseResult()
    before = read_ledgers(sim)
    clock.phase("beaconing")
    if tracer is not None:
        tracer.begin_phase("beaconing")
    for _ in range(plan.periods):
        result.rac_reports.extend(
            report for round_report in sim.run_period() for report in round_report.rac_reports
        )
    if tracer is not None:
        tracer.end_phase()
    clock.phase("untimed")
    delta = result.ledgers["beaconing"] = ledger_delta(read_ledgers(sim), before)
    result.pcbs_sent = phase.attempted = delta["net.sent"]
    phase.failed = delta["ingress.rejected_signature"] + delta["ingress.rejected_policy"]
    result.rss_after["beaconing"] = rss_mb()
    sim_digest = simulation_digest(sim)
    if not registered_paths_are_sound(sim):
        phase.fail_all()

    # -- phase 3: RAC passes over the warmed ingress databases -------------
    phase = result.phases["rac"] = PhaseResult()
    _c, reference_selections, _f, _r = rac_pass(sim, clock.tick)  # discarded
    clock.phase("rac")
    if tracer is not None:
        tracer.begin_phase("rac")
    passes_agree = True
    for _ in range(plan.rac_passes):
        candidates, selections, failed_buckets, _reports = rac_pass(sim, clock.tick)
        phase.attempted += candidates
        passes_agree &= not failed_buckets and selections == reference_selections
    if tracer is not None:
        tracer.end_phase()
    clock.phase("untimed")
    result.rac_candidates = phase.attempted
    if not passes_agree:
        phase.fail_all()
    result.rss_after["rac"] = rss_mb()

    # -- phase 4: the query mix ------------------------------------------
    phase = result.phases["query"] = PhaseResult()
    sampled = [0]
    mix = query_mix(sim, inputs)
    # The first pass warms the caches and is the reference the others must match.
    _l, reference_sizes, _w, _n = query_pass(sim, mix, clock.tick, sampled)
    before = read_ledgers(sim)
    clock.phase("query")
    if tracer is not None:
        tracer.begin_phase("query")
    passes_agree = True
    for _ in range(plan.query_passes):
        lookups, sizes, wrong, written = query_pass(sim, mix, clock.tick, sampled)
        phase.attempted += lookups
        phase.failed += wrong
        result.query_writes += written
        passes_agree &= sizes == reference_sizes
    if tracer is not None:
        tracer.end_phase()
    clock.phase("untimed")
    result.peak_rss_mb = peak_rss_mb()
    result.ledgers["query"] = ledger_delta(read_ledgers(sim), before)
    result.lookups = phase.attempted
    phase.correct = not phase.failed
    if not passes_agree:
        phase.fail_all()

    sha = hashlib.sha256(sim_digest.encode("ascii"))
    sha.update(repr((reference_selections, reference_sizes)).encode("ascii"))
    result.digest = sha.hexdigest()

    # -- the workload's further set-ups --------------------------------------
    # After the measured phases and the RSS reading, so they disturb neither;
    # each starts from generated inputs again, with the previous simulation
    # gone.  A traced run keeps to the one set-up its setup.* metrics describe.
    if tracer is None:
        del first, sim, inputs, mix
        for _ in range(1, workload.setups):
            gc.collect()
            again = set_up(workload, seed, toy, clock)
            result.setups.append((again.ref_s, again.raw_s))
            if again.prefix_digest != result.prefix_digest:
                result.phases["beaconing"].fail_all()
            del again
    clock.stop()
    return result


def unhooked_prefix_digest(workload: Workload, seed: int, toy: bool) -> str:
    """Digest of a freshly generated, never-hooked twin after the prefix periods."""
    sim = build_simulation(workload.build(seed, toy))
    for _ in range(PREFIX_PERIODS):
        sim.run_period()
    return simulation_digest(sim)
