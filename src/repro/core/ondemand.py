"""On-demand algorithms: publication and resolution (paper §IV-C, §V-C).

An origin AS that uses on-demand routing publishes its algorithm payload
under an identifier in its :class:`AlgorithmRepository`; the PCBs it
originates carry that identifier together with the payload hash.

The :class:`OnDemandAlgorithmManager` is the piece of an on-demand RAC that
turns such a reference into an executable
:class:`~repro.algorithms.base.RoutingAlgorithm`:

1. the payload is fetched from the beacon's origin AS through the
   deployment's transport (the origin is always reachable — at worst over
   the path contained in the PCB itself),
2. its size is checked and its hash verified against the hash announced in
   the PCB, whose integrity is in turn protected by the origin's signature,
3. the payload is decoded into an algorithm object; restricted-Python
   payloads additionally pass sandbox validation, and
4. the outcome is cached per ``(origin AS, algorithm id, hash)`` so the
   work happens once per origin and algorithm.  A payload that verifies but
   does not decode is cached as its error message: it is not fetched again,
   and every later resolve raises a fresh :class:`AlgorithmError`.  A
   payload that fails the size or hash check is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, Union

from repro.algorithms.base import RoutingAlgorithm
from repro.algorithms.registry import decode_payload
from repro.core.beacon import Beacon
from repro.core.sandbox import MAX_PAYLOAD_BYTES
from repro.crypto.hashing import algorithm_hash
from repro.exceptions import AlgorithmError, AlgorithmIntegrityError, UnknownAlgorithmError


@dataclass
class AlgorithmRepository:
    """Payloads published by one origin AS."""

    as_id: int
    _payloads: Dict[str, bytes] = field(default_factory=dict, init=False)

    def publish(self, algorithm_id: str, payload: bytes) -> str:
        """Publish ``payload`` under ``algorithm_id`` and return its hash.

        Republishing the same identifier replaces the payload (the origin AS
        controls its own repository); the new hash must then be used in
        newly-originated PCBs.
        """
        if not algorithm_id:
            raise UnknownAlgorithmError(algorithm_id)
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise AlgorithmIntegrityError(
                f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte limit"
            )
        self._payloads[algorithm_id] = bytes(payload)
        return algorithm_hash(payload)

    def fetch(self, algorithm_id: str) -> bytes:
        """Return the payload published under ``algorithm_id``.

        Raises:
            UnknownAlgorithmError: If nothing is published under the id.
        """
        payload = self._payloads.get(algorithm_id)
        if payload is None:
            raise UnknownAlgorithmError(algorithm_id)
        return payload

    def hash_of(self, algorithm_id: str) -> str:
        """Return the hash of the payload published under ``algorithm_id``."""
        return algorithm_hash(self.fetch(algorithm_id))

    def __contains__(self, algorithm_id: str) -> bool:
        return algorithm_id in self._payloads


@dataclass
class OnDemandAlgorithmManager:
    """Fetch, verify, decode and cache on-demand algorithms for one RAC.

    Attributes:
        transport: ``(origin_as, algorithm_id) -> payload bytes``; fetches
            a payload from the AS that published it.
        cache_enabled: Whether resolved algorithms (and decode failures)
            are kept; when off, every resolve fetches and decodes.
    """

    transport: Callable[[int, str], bytes]
    cache_enabled: bool = True
    #: ``(origin, algorithm id, hash)`` → the decoded algorithm, or the
    #: message of the error its payload failed to decode with.
    _cache: Dict[Tuple[int, str, str], Union[RoutingAlgorithm, str]] = field(
        default_factory=dict, init=False
    )

    def resolve(self, beacon: Beacon) -> RoutingAlgorithm:
        """Return the executable algorithm referenced by ``beacon``.

        Raises:
            AlgorithmError: If the beacon has no algorithm extension or the
                payload cannot be fetched or decoded.
            AlgorithmIntegrityError: If the fetched payload is oversized or
                fails hash verification.
        """
        extension = beacon.extensions.algorithm
        if extension is None:
            raise AlgorithmError("beacon does not carry an algorithm extension")
        key = (beacon.origin_as, extension.algorithm_id, extension.code_hash)
        cached = self._cache.get(key)
        if cached is None:
            payload = self._fetch(*key)
            try:
                cached = decode_payload(payload)
            except AlgorithmError as exc:
                if self.cache_enabled:
                    self._cache[key] = str(exc)
                raise
            if self.cache_enabled:
                self._cache[key] = cached
        if isinstance(cached, str):
            raise AlgorithmError(cached)
        return cached

    def _fetch(self, origin_as: int, algorithm_id: str, expected_hash: str) -> bytes:
        """Fetch the payload of ``(origin_as, algorithm_id)`` and verify it."""
        payload = self.transport(origin_as, algorithm_id)
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise AlgorithmIntegrityError(
                f"fetched payload of {len(payload)} bytes exceeds the size limit"
            )
        if algorithm_hash(payload) != expected_hash:
            raise AlgorithmIntegrityError(
                f"payload for algorithm {algorithm_id!r} from AS {origin_as} "
                "does not match the hash announced in the PCB"
            )
        return payload
