"""Live link and AS availability — the one failure model.

A :class:`LinkState` answers "is this link up?" for every layer: the
beaconing driver mutates it when timeline events fire, the control-plane
fabric drops messages on unavailable links, and the data plane
(:class:`~repro.dataplane.network.DataPlaneNetwork`, the traffic engine)
drops or avoids what crosses them.  An empty state means everything is up, so every consumer
holds one and none treats it as optional.  Post-hoc survivability
analysis (Figure 8b) fails links on a fresh state and compares the
surviving paths with
:func:`repro.analysis.disjointness_eval.tolerable_link_failures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from repro.exceptions import SimulationError
from repro.topology.entities import LinkID, normalize_link_id


@dataclass
class LinkState:
    """Live availability of links and ASes during a dynamic simulation.

    One instance is shared between the beaconing driver (which mutates it
    when timeline events fire) and the simulated transport (which consults
    it on every send *and* every delivery, so a link failing mid-flight
    loses the PCBs currently on it).

    A link is available only if it is not failed and both endpoint ASes
    are online; an offline AS implicitly takes all of its links down.

    Beyond hard failures, a link can be *degraded* (PR 7): gray-failed
    links silently drop messages with ``gray_links[key]`` probability,
    and flapping links carry per-direction loss rates keyed by
    ``(link key, receiving AS)``.  Degradation is deliberately invisible
    to :meth:`impaired`, :meth:`link_available` and
    :meth:`path_available` — the control plane must keep treating the
    link as up (no revocations, stale paths linger); only the transport's
    delivery dice and end-host-observed quality reveal it.
    """

    failed_links: Set[LinkID] = field(default_factory=set)
    offline_ases: Set[int] = field(default_factory=set)
    gray_links: Dict[LinkID, float] = field(default_factory=dict)
    link_loss: Dict[Tuple[LinkID, int], float] = field(default_factory=dict)

    def fail_link(self, link_id: LinkID) -> None:
        """Mark one link as failed."""
        self.failed_links.add(normalize_link_id(*link_id))

    def restore_link(self, link_id: LinkID) -> None:
        """Bring one link back up (no-op if it was not failed)."""
        self.failed_links.discard(normalize_link_id(*link_id))

    def set_as_offline(self, as_id: int) -> None:
        """Take an AS (and implicitly all of its links) offline."""
        self.offline_ases.add(int(as_id))

    def set_as_online(self, as_id: int) -> None:
        """Bring an AS back online (its non-failed links become usable)."""
        self.offline_ases.discard(int(as_id))

    def is_as_up(self, as_id: int) -> bool:
        """Return whether ``as_id`` is online."""
        return int(as_id) not in self.offline_ases

    def impaired(self) -> bool:
        """Return whether anything is currently failed or offline.

        The transport's delivery fast path uses this to skip the per-hop
        path check entirely while the network is healthy, keeping static
        simulations at their original per-delivery cost.
        """
        return bool(self.failed_links or self.offline_ases)

    def is_link_up(self, link_id: LinkID) -> bool:
        """Return whether the link itself (ignoring its ASes) is up."""
        return normalize_link_id(*link_id) not in self.failed_links

    def link_available(self, link_id: LinkID) -> bool:
        """Return whether traffic can traverse ``link_id`` right now."""
        return self.link_key_available(normalize_link_id(*link_id))

    def link_key_available(self, key: LinkID) -> bool:
        """:meth:`link_available` for an already-normalised key.

        The transport's per-delivery fast path: link objects expose
        normalised keys, so re-normalising per message would only burn
        cycles during floods.
        """
        if key in self.failed_links:
            return False
        (as_a, _if_a), (as_b, _if_b) = key
        return as_a not in self.offline_ases and as_b not in self.offline_ases

    def path_available(self, path_links: Iterable[LinkID]) -> bool:
        """Return whether every link of a path is currently available.

        Gray failures and flap loss do *not* count: a degraded path is
        still "available" to the control plane by design.
        """
        return all(self.link_available(link) for link in path_links)

    # ------------------------------------------------------------------
    # silent degradation (gray failures, flap loss)
    # ------------------------------------------------------------------
    def set_gray(self, link_id: LinkID, drop_rate: float) -> None:
        """Gray-fail a link: drop each message with ``drop_rate`` probability."""
        if not 0.0 < drop_rate <= 1.0:
            raise SimulationError(
                f"gray drop rate must be within (0, 1], got {drop_rate}"
            )
        self.gray_links[normalize_link_id(*link_id)] = drop_rate

    def clear_gray(self, link_id: LinkID) -> None:
        """Silently clear a gray failure (no-op if the link was healthy)."""
        self.gray_links.pop(normalize_link_id(*link_id), None)

    def set_link_loss(self, link_id: LinkID, toward_as: int, rate: float) -> None:
        """Set the directional loss rate for messages arriving at ``toward_as``."""
        if not 0.0 <= rate <= 1.0:
            raise SimulationError(f"loss rate must be within [0, 1], got {rate}")
        key = (normalize_link_id(*link_id), int(toward_as))
        if rate == 0.0:
            self.link_loss.pop(key, None)
        else:
            self.link_loss[key] = rate

    def clear_link_loss(self, link_id: LinkID) -> None:
        """Clear both directions' loss rates of one link."""
        normalised = normalize_link_id(*link_id)
        (as_a, _), (as_b, _) = normalised
        self.link_loss.pop((normalised, as_a), None)
        self.link_loss.pop((normalised, as_b), None)

    def degraded(self) -> bool:
        """Return whether any link silently drops messages right now.

        The transport's delivery fast path: while no link is degraded
        (the overwhelmingly common case) deliveries skip the loss dice
        entirely.
        """
        return bool(self.gray_links or self.link_loss)

    def silent_loss(self, key: LinkID) -> float:
        """Return the worst-direction silent-drop probability of one link.

        The end-host-observed quality proxy used by closed-loop demand: a
        host measuring loss on its own traffic observes (in expectation)
        the configured drop probability of the direction it sends over;
        taking the worse direction makes the estimate conservative.
        """
        (as_a, _if_a), (as_b, _if_b) = key
        return max(self.drop_probability(key, as_a), self.drop_probability(key, as_b))

    def drop_probability(self, key: LinkID, toward_as: int) -> float:
        """Return the combined silent-drop probability of one delivery.

        Gray drops and directional flap loss are independent events; the
        combined probability composes them (``1 - (1-g)(1-l)``).
        """
        rate = self.gray_links.get(key, 0.0)
        directional = self.link_loss.get((key, toward_as))
        if directional:
            rate = 1.0 - (1.0 - rate) * (1.0 - directional)
        return rate
