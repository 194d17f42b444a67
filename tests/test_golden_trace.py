"""Golden-trace regression test for the dynamic-scenario engine.

Runs a small seeded dynamic scenario (scripted failure/recovery/churn plus
generator-produced random failures) and digests the complete
event/convergence trace together with the headline collector counters.
The digest is compared against a checked-in constant, proving that the
discrete-event scheduler, the timeline application order and the
convergence bookkeeping are bit-for-bit deterministic — across runs in one
process and across processes/machines.

If a PR changes the engine's observable behaviour on purpose, update
``GOLDEN_DIGEST`` with the value printed by the failing assertion and
justify the change in the PR description.
"""

import hashlib
import random

import pytest

from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import (
    ASJoin,
    ASLeave,
    ForwardingSuppression,
    GrayFailure,
    GrayRecovery,
    LinkFailure,
    LinkFlap,
    LinkRecovery,
    RevocationForgery,
    RevocationReplay,
    TopologyGrowth,
)
from repro.simulation.scenario import disjointness_scenario, dob_scenario, don_scenario
from repro.topology.generator import TopologyConfig, generate_topology
from repro.units import minutes

from tests.conftest import line_topology, random_link_failures

# Recovery records are dated at the sub-period registration timestamp of
# the freshly re-registered (previously withdrawn) paths when those account
# for the whole disruption, not at the next period-boundary probe — the
# PR 3 sub-period convergence measurement.
# PR 4: the post-failure revocation flood became real hop-by-hop messages
# (repro.core.revocation): `revocations=` in the summary now counts
# individual transmissions instead of one counter bump per notified AS,
# and withdrawal happens when each AS *receives* a revocation, which
# shifts purge timing (and therefore PCB send/drop counts and recovery
# instants) by the propagation delays of the flood.
GOLDEN_DIGEST = "5ce362c5870d1b961141d110321bed2360d38f20be418884cfa6aac7ee21ed8d"


# The same scenario with ASes 2 and 4 running legacy SCION (§VII-B's mixed
# deployment): the 2-3 failure floods through a legacy AS, and legacy AS 4
# leaves, cold-restarts and rejoins.  Pinned while a legacy AS still ran a
# control service class of its own, so "unchanged" holds the legacy
# configuration of the one class to it.  `MIXED_DIGEST` pins the trace and
# the fabric counters, `MIXED_SEGMENTS_DIGEST` every AS's registered
# segments.
MIXED_LEGACY_ASES = (2, 4)
MIXED_DIGEST = "7f34fe8712fca68e276cf0f53cfe7e4130f724c5df11df19293d6fc9445a07a7"
MIXED_SEGMENTS_DIGEST = "762f660ec2d4f1f1ed0bbac5ec8f600cb743099eb67758befdebd743359e27be"


def _run_golden(instrument=None, factory=None, legacy_ases=()):
    """Build and run the pinned golden scenario; return its result."""
    if factory is None:
        factory = BeaconingSimulation
    topology = line_topology(5)
    scenario = don_scenario(periods=11, verify_signatures=False)
    scenario.legacy_ases = tuple(legacy_ases)

    core_link = topology.link_ids()[1]  # the 2-3 link
    scenario.timeline.add(minutes(25), LinkFailure(core_link))
    scenario.timeline.add(minutes(45), LinkRecovery(core_link))
    scenario.timeline.add(minutes(55), ASLeave(4)).add(minutes(65), ASJoin(4))
    scenario.timeline.extend(
        random_link_failures(
            topology,
            count=1,
            rng=random.Random(1234),
            start_ms=minutes(15),
            spacing_ms=minutes(10),
            recovery_after_ms=minutes(10),
        )
    )

    simulation = factory(topology, scenario)
    simulation.watch_pair(3, 1)
    simulation.watch_pair(5, 1)
    if instrument is not None:
        instrument(simulation)
    return simulation.run()


def _trace(result, extra=""):
    summary = (
        f"sent={result.collector.total_sent}"
        f" dropped={result.collector.total_dropped}"
        f" revocations={result.collector.total_revocations}{extra}"
        f" periods={result.periods_run}"
        f" final={result.final_time_ms:.3f}"
        f" records={len(result.convergence.records)}"
    )
    record_lines = [record.trace_label() for record in result.convergence.records]
    return "\n".join([result.convergence.trace_text(), *record_lines, summary])


def run_scenario(instrument=None, factory=None):
    """Run the pinned golden scenario; return its trace text.

    ``instrument`` (if given) receives the built simulation right before
    ``run()`` — the query-tier tests use it to attach probes and prove the
    digest is unchanged with them attached.  ``factory`` (default
    :class:`BeaconingSimulation`) builds the simulation from
    ``(topology, scenario)`` — the message-only sharing check passes one
    whose transport delivers copies.
    """
    return _trace(_run_golden(instrument, factory))


def run_mixed_scenario(factory=None):
    """Run the golden scenario with legacy ASes; return ``(trace, segments)``.

    ``segments`` lists every AS's registered segments (sorted digests, one
    line per AS).
    """
    result = _run_golden(factory=factory, legacy_ases=MIXED_LEGACY_ASES)
    segments = "\n".join(
        f"as={as_id} "
        + ",".join(sorted(p.segment.digest() for p in service.path_service.all_paths()))
        for as_id, service in sorted(result.services.items())
    )
    registrations = f" registrations={result.collector.sent['path_registration']}"
    return _trace(result, registrations), segments


class TestGoldenTrace:
    def test_trace_is_reproducible_within_process(self):
        assert run_scenario() == run_scenario()

    def test_trace_matches_checked_in_digest(self):
        trace = run_scenario()
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST, (
            "golden trace changed — if intentional, update GOLDEN_DIGEST to "
            f"{digest!r}; trace was:\n{trace}"
        )

    def test_mixed_deployment_matches_checked_in_digests(self):
        """Legacy and IREC ASes on one fabric: trace, counters and every
        AS's registered segments are the ones the parent commit produced."""
        trace, segments = run_mixed_scenario()
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == MIXED_DIGEST, (
            "mixed-deployment trace changed — if intentional, update "
            f"MIXED_DIGEST to {digest!r}; trace was:\n{trace}"
        )
        digest = hashlib.sha256(segments.encode("utf-8")).hexdigest()
        assert digest == MIXED_SEGMENTS_DIGEST, (
            "mixed-deployment registered segments changed — if intentional, "
            f"update MIXED_SEGMENTS_DIGEST to {digest!r}; segments were:\n{segments}"
        )
        assert (trace, segments) == run_mixed_scenario()


# Generated mixed deployments: a 13-AS generator topology, a seeded random
# third of the ASes legacy and two random link failures, under three
# algorithm suites.  Each digest covers the trace, the fabric counters and
# every AS's registered segments with their criteria tags.  Pinned on the
# code where a legacy AS still ran a control service class of its own, so
# they hold a legacy AS built as a configuration of the one class to that
# class's behaviour.
GENERATED_MIXED_DIGESTS = {
    "dob2000-signed": "68e2466652b83ce29eb0d66b07faffe35550aa160f63bbac8a7edbd62bfbe3ab",
    "don": "c28359238953f93345c6476c9196b0258aa3b4e83bb2ff1adb5d14809e7ca391",
    "1sp-hd": "2bf5946240a43a39fb757bf3d7e7e41ef08090849329e5df6e93d0aec406636f",
}


def run_generated_mixed(case, factory=None):
    """Run one generated mixed deployment; return its digested text."""
    if factory is None:
        factory = BeaconingSimulation
    topology = generate_topology(
        TopologyConfig(num_ases=13, num_core=3, num_transit=5, seed=1)
    )
    scenario, seed = {
        "dob2000-signed": (dob_scenario(radius_km=2000, verify_signatures=True), 1),
        "don": (don_scenario(), 2),
        "1sp-hd": (disjointness_scenario(), 3),
    }[case]
    rng = random.Random(seed)
    as_ids = sorted(topology.as_ids())
    scenario.legacy_ases = tuple(sorted(rng.sample(as_ids, k=len(as_ids) // 3)))
    scenario.timeline.extend(
        random_link_failures(
            topology,
            count=2,
            rng=rng,
            start_ms=minutes(15),
            spacing_ms=minutes(10),
            recovery_after_ms=minutes(10),
        )
    )
    simulation = factory(topology, scenario)
    for source_as in as_ids[1:]:
        simulation.watch_pair(source_as, as_ids[0])
    result = simulation.run()
    segments = [
        f"as={as_id} "
        + ",".join(
            sorted(
                f"{path.segment.digest()}:{'+'.join(path.criteria_tags)}"
                for path in service.path_service.all_paths()
            )
        )
        for as_id, service in sorted(result.services.items())
    ]
    registrations = f" registrations={result.collector.sent['path_registration']}"
    return "\n".join([_trace(result, registrations), *segments])


class TestGeneratedMixedDeployments:
    @pytest.mark.parametrize("case", sorted(GENERATED_MIXED_DIGESTS))
    def test_matches_checked_in_digest(self, case):
        text = run_generated_mixed(case)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GENERATED_MIXED_DIGESTS[case], (
            f"generated mixed deployment {case!r} changed — if intentional, "
            f"update GENERATED_MIXED_DIGESTS[{case!r}] to {digest!r}; it was:\n{text}"
        )


# ---------------------------------------------------------------------------
# PR 7: adversarial & gray-failure family golden traces
# ---------------------------------------------------------------------------

# One pinned digest per new event family.  Each scenario runs the same
# 5-AS line as the clean golden run with one family's events layered on
# top; the digests prove the adversarial machinery (flap toggles, silent
# loss dice, forgery/replay/suppression dispatch, live topology growth)
# is bit-for-bit deterministic.  Update a value (with justification) only
# when a PR intentionally changes that family's observable behaviour.
# churn_growth re-pinned when an AS began to originate on the interfaces
# topology growth attaches to it: ASes 3 and 5 (and 6, once AS 7 attaches)
# now originate on their new links too, so `sent` went 334 -> 381.
FAMILY_DIGESTS = {
    "flap": "dcb7e8c70c5fa6ac472ced3facb84f53e92e226fec878941ebe4d4d610aa65f9",
    "gray": "8b32eaa6ae7f473d4e5d3e28d84f4da8df220e6699cb92529a004e10419be68d",
    "byzantine": "cabf009078db2dc83332a0ef98311bb85fb7327f1adc83b6507514161e46a27f",
    "churn_growth": "58c5bbc4e1d965bb475a51adecbb17fc62e88349c499821b4044871823c6b42f",
}


def run_family_scenario(family, factory=None):
    """Run one adversarial-family golden scenario; return its trace text."""
    if factory is None:
        factory = BeaconingSimulation
    topology = line_topology(5)
    # Byzantine runs verify signatures — the family's whole point is the
    # rejection path; the others keep the clean run's cheap setting.
    scenario = don_scenario(
        periods=9, verify_signatures=(family == "byzantine")
    )
    scenario.loss_seed = 42
    link = topology.link_ids()[1]  # the 2-3 link

    if family == "flap":
        scenario.timeline.add(minutes(25), LinkFlap(
            link,
            schedule=(0.0, minutes(6), minutes(12), minutes(18)),
            loss_ab=0.3,
            loss_ba=0.3,
        ))
    elif family == "gray":
        scenario.timeline.add(minutes(25), GrayFailure(link, drop_rate=0.7))
        scenario.timeline.add(minutes(55), GrayRecovery(link))
    elif family == "byzantine":
        scenario.timeline.add(minutes(25), RevocationForgery(
            attacker_as=5, claimed_origin=2, link_id=link, count=2
        ))
        scenario.timeline.add(minutes(30), LinkFailure(link))
        scenario.timeline.add(minutes(40), LinkRecovery(link))
        scenario.timeline.add(minutes(45), RevocationReplay(attacker_as=5, count=1))
        scenario.timeline.add(minutes(50), ForwardingSuppression((4,)))
    elif family == "churn_growth":
        scenario.timeline.add(minutes(25), TopologyGrowth(6, attach_to=(3, 5)))
        scenario.timeline.add(minutes(45), TopologyGrowth(7, attach_to=(6,)))
    else:  # pragma: no cover - guard against typos in parametrization
        raise ValueError(f"unknown family {family!r}")

    simulation = factory(topology, scenario)
    simulation.watch_pair(5, 1)
    result = simulation.run()
    summary = (
        f"sent={result.collector.total_sent}"
        f" dropped={result.collector.total_dropped}"
        f" gray={result.collector.gray_dropped_total()}"
        f" revocations={result.collector.total_revocations}"
        f" rejected={sum(s.revocations.rejected_invalid for s in result.services.values())}"
        f" duplicates={sum(s.revocations.duplicates for s in result.services.values())}"
        f" ases={len(result.services)}"
        f" final={result.final_time_ms:.3f}"
        f" records={len(result.convergence.records)}"
    )
    record_lines = [record.trace_label() for record in result.convergence.records]
    return "\n".join([result.convergence.trace_text(), *record_lines, summary])


class TestAdversarialGoldenTraces:
    def test_family_traces_are_reproducible_within_process(self):
        for family in FAMILY_DIGESTS:
            assert run_family_scenario(family) == run_family_scenario(family)

    def test_family_traces_match_checked_in_digests(self):
        for family, expected in FAMILY_DIGESTS.items():
            trace = run_family_scenario(family)
            digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
            assert digest == expected, (
                f"{family} golden trace changed — if intentional, update "
                f"FAMILY_DIGESTS[{family!r}] to {digest!r}; trace was:\n{trace}"
            )

    def test_byzantine_events_disabled_matches_clean_digest(self):
        """Acceptance: attackers off ⇒ the pinned clean digest, untouched.

        The adversarial plumbing (loss seed, new dispatch branches, the
        suppression/forgery hooks) must be strictly pay-for-what-you-use:
        a scenario that schedules no adversarial events produces the
        exact clean golden trace.
        """
        trace = run_scenario()
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST

    def test_defeated_attack_does_not_change_registered_paths(self):
        """Forgery + replay against verifying ASes: path state identical."""

        def run(attack):
            topology = line_topology(5)
            scenario = don_scenario(periods=6, verify_signatures=True)
            if attack:
                scenario.timeline.add(minutes(25), RevocationForgery(
                    attacker_as=5,
                    claimed_origin=2,
                    link_id=topology.link_ids()[1],
                    count=3,
                ))
            simulation = BeaconingSimulation(topology, scenario)
            result = simulation.run()
            paths = {
                as_id: sorted(
                    path.segment.digest()
                    for path in service.path_service.all_paths()
                )
                for as_id, service in result.services.items()
            }
            return paths, result

        clean_paths, _clean = run(attack=False)
        attacked_paths, attacked = run(attack=True)
        assert attacked_paths == clean_paths
        assert all(
            service.revocations.applied_at == {}
            for service in attacked.services.values()
        )
