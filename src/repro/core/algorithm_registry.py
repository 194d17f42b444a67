"""Publication and retrieval of on-demand algorithm payloads.

An origin AS that uses on-demand routing publishes its algorithm payload
under an identifier; the PCBs it originates carry that identifier together
with the payload hash.  Any on-demand RAC that receives such a PCB fetches
the payload from the origin AS — reachable over the path contained in the
PCB itself — verifies the hash, caches the executable and runs it (paper
§IV-C, §V-C).

Two components implement this:

* :class:`AlgorithmRepository` — the per-AS publication store, exposed by
  the origin AS's control service, and
* :class:`AlgorithmFetcher` — the RAC-side client with hash verification
  and a cache keyed by ``(origin AS, algorithm id)`` so the payload is
  fetched only once per origin and identifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.crypto.hashing import algorithm_hash
from repro.exceptions import AlgorithmIntegrityError, UnknownAlgorithmError
from repro.core.sandbox import MAX_PAYLOAD_BYTES


@dataclass
class AlgorithmRepository:
    """Payloads published by one origin AS."""

    as_id: int
    _payloads: Dict[str, bytes] = field(default_factory=dict)

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

    def published_ids(self) -> Tuple[str, ...]:
        """Return the published identifiers, sorted."""
        return tuple(sorted(self._payloads))

    def __contains__(self, algorithm_id: str) -> bool:
        return algorithm_id in self._payloads


#: Signature of the transport used to fetch a payload from a remote AS:
#: (origin_as, algorithm_id) -> payload bytes.
FetchTransport = Callable[[int, str], bytes]


@dataclass
class FetchRecord:
    """Diagnostic record of one remote fetch (used by tests and benchmarks)."""

    origin_as: int
    algorithm_id: str
    payload_bytes: int
    from_cache: bool


@dataclass
class AlgorithmFetcher:
    """RAC-side retrieval of on-demand payloads with verification and caching."""

    transport: FetchTransport
    cache_enabled: bool = True
    _cache: Dict[Tuple[int, str], bytes] = field(default_factory=dict)
    history: list = field(default_factory=list)

    def fetch(self, origin_as: int, algorithm_id: str, expected_hash: str) -> bytes:
        """Fetch, verify and cache the payload of ``(origin_as, algorithm_id)``.

        Args:
            origin_as: AS that published the payload.
            algorithm_id: Identifier under which it was published.
            expected_hash: Hash from the PCB's algorithm extension; the
                fetched payload must match it.

        Raises:
            AlgorithmIntegrityError: If the fetched payload does not hash to
                ``expected_hash`` (cached entries are re-verified too, so a
                poisoned cache cannot satisfy a different hash).
        """
        key = (origin_as, algorithm_id)
        cached = self._cache.get(key) if self.cache_enabled else None
        if cached is not None and algorithm_hash(cached) == expected_hash:
            self.history.append(
                FetchRecord(
                    origin_as=origin_as,
                    algorithm_id=algorithm_id,
                    payload_bytes=len(cached),
                    from_cache=True,
                )
            )
            return cached

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
        if self.cache_enabled:
            self._cache[key] = payload
        self.history.append(
            FetchRecord(
                origin_as=origin_as,
                algorithm_id=algorithm_id,
                payload_bytes=len(payload),
                from_cache=False,
            )
        )
        return payload

    def remote_fetch_count(self) -> int:
        """Return how many fetches actually went over the transport."""
        return sum(1 for record in self.history if not record.from_cache)

    def clear_cache(self) -> None:
        """Drop every cached payload."""
        self._cache.clear()
