"""IREC's PCB extensions (paper §IV-F).

IREC adds three optional extensions to the SCION PCB format, all set by the
origin AS:

* :class:`TargetExtension` — pull-based routing (§IV-B): the beacon is
  addressed to a single target AS, which returns it to the origin.
* :class:`AlgorithmExtension` — on-demand routing (§IV-C): the beacon
  carries the identifier and implementation hash of the routing algorithm
  that every on-path AS should execute for it.
* :class:`InterfaceGroupExtension` — flexible optimization granularity
  (§IV-D): the beacon is tagged with the interface group of its origin
  interface so that downstream ASes optimize per group.

At most one extension of each kind may be present on a beacon; the
:class:`ExtensionSet` container enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ExtensionError


@dataclass(frozen=True)
class TargetExtension:
    """Pull-based routing extension naming the beacon's target AS."""

    target_as: int

    def encode(self) -> str:
        """Return the canonical encoding used for signing."""
        return f"target({self.target_as})"


@dataclass(frozen=True)
class AlgorithmExtension:
    """On-demand routing extension carrying an algorithm reference.

    Attributes:
        algorithm_id: Identifier under which the origin AS published the
            algorithm (resolvable through the origin's algorithm registry).
        code_hash: Hex digest of the algorithm payload.  RACs verify the
            fetched payload against this hash; the hash itself is protected
            by the origin AS's signature over the beacon.
    """

    algorithm_id: str
    code_hash: str

    def __post_init__(self) -> None:
        if not self.algorithm_id:
            raise ExtensionError("algorithm_id must be non-empty")
        if not self.code_hash:
            raise ExtensionError("code_hash must be non-empty")

    def encode(self) -> str:
        """Return the canonical encoding used for signing."""
        return f"algorithm({self.algorithm_id},{self.code_hash})"


@dataclass(frozen=True)
class InterfaceGroupExtension:
    """Flexible-granularity extension naming the origin interface group."""

    group_id: int

    def __post_init__(self) -> None:
        if self.group_id < 0:
            raise ExtensionError(f"group_id must be non-negative, got {self.group_id}")

    def encode(self) -> str:
        """Return the canonical encoding used for signing."""
        return f"ifgroup({self.group_id})"


@dataclass(frozen=True)
class ExtensionSet:
    """The (at most one of each kind) extensions attached to a beacon."""

    target: Optional[TargetExtension] = None
    algorithm: Optional[AlgorithmExtension] = None
    interface_group: Optional[InterfaceGroupExtension] = None

    def encode(self) -> str:
        """Return the canonical encoding used for signing."""
        parts = []
        if self.target is not None:
            parts.append(self.target.encode())
        if self.algorithm is not None:
            parts.append(self.algorithm.encode())
        if self.interface_group is not None:
            parts.append(self.interface_group.encode())
        return "ext[" + ";".join(parts) + "]"

    def with_target(self, target_as: int) -> "ExtensionSet":
        """Return a copy with the target extension set.

        Raises:
            ExtensionError: If a target extension is already present.
        """
        if self.target is not None:
            raise ExtensionError("beacon already carries a target extension")
        return ExtensionSet(
            target=TargetExtension(target_as=target_as),
            algorithm=self.algorithm,
            interface_group=self.interface_group,
        )

    def with_algorithm(self, algorithm_id: str, code_hash: str) -> "ExtensionSet":
        """Return a copy with the algorithm extension set.

        Raises:
            ExtensionError: If an algorithm extension is already present.
        """
        if self.algorithm is not None:
            raise ExtensionError("beacon already carries an algorithm extension")
        return ExtensionSet(
            target=self.target,
            algorithm=AlgorithmExtension(algorithm_id=algorithm_id, code_hash=code_hash),
            interface_group=self.interface_group,
        )

    def with_interface_group(self, group_id: int) -> "ExtensionSet":
        """Return a copy with the interface-group extension set.

        Raises:
            ExtensionError: If an interface-group extension is already present.
        """
        if self.interface_group is not None:
            raise ExtensionError("beacon already carries an interface-group extension")
        return ExtensionSet(
            target=self.target,
            algorithm=self.algorithm,
            interface_group=InterfaceGroupExtension(group_id=group_id),
        )
