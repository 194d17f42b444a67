"""On-demand algorithm management (paper §IV-C).

The :class:`OnDemandAlgorithmManager` is the piece of an on-demand RAC that
turns the algorithm *reference* found in a PCB (identifier + payload hash)
into an executable :class:`~repro.algorithms.base.RoutingAlgorithm`:

1. the payload is fetched from the beacon's origin AS through the
   deployment's transport (the origin is always reachable — at worst over
   the path contained in the PCB itself),
2. the payload hash is verified against the hash announced in the PCB,
   whose integrity is in turn protected by the origin's signature,
3. the payload is decoded into an algorithm object; restricted-Python
   payloads additionally pass sandbox validation, and
4. both the payload (in the fetcher) and the decoded algorithm are cached
   per ``(origin AS, algorithm id, hash)`` so the work happens once per
   origin and algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.algorithms.base import RoutingAlgorithm
from repro.algorithms.registry import AlgorithmCatalog, decode_payload, default_catalog
from repro.core.algorithm_registry import AlgorithmFetcher
from repro.core.beacon import Beacon
from repro.exceptions import AlgorithmError


@dataclass
class OnDemandAlgorithmManager:
    """Fetch, verify, decode and cache on-demand algorithms for one RAC."""

    fetcher: AlgorithmFetcher
    catalog: AlgorithmCatalog = field(default_factory=default_catalog)
    cache_enabled: bool = True
    _algorithms: Dict[Tuple[int, str, str], RoutingAlgorithm] = field(default_factory=dict)

    def resolve(self, beacon: Beacon) -> RoutingAlgorithm:
        """Return the executable algorithm referenced by ``beacon``.

        Raises:
            AlgorithmError: If the beacon has no algorithm extension or the
                payload cannot be decoded.
            AlgorithmIntegrityError: If the fetched payload fails hash
                verification.
        """
        extension = beacon.extensions.algorithm
        if extension is None:
            raise AlgorithmError("beacon does not carry an algorithm extension")
        key = (beacon.origin_as, extension.algorithm_id, extension.code_hash)
        if self.cache_enabled:
            cached = self._algorithms.get(key)
            if cached is not None:
                return cached

        payload = self.fetcher.fetch(
            origin_as=beacon.origin_as,
            algorithm_id=extension.algorithm_id,
            expected_hash=extension.code_hash,
        )
        algorithm = decode_payload(payload, catalog=self.catalog)
        if self.cache_enabled:
            self._algorithms[key] = algorithm
        return algorithm

    def cached_algorithm_count(self) -> int:
        """Return how many distinct algorithms are currently cached."""
        return len(self._algorithms)

    def clear(self) -> None:
        """Drop the decoded-algorithm cache (the payload cache is separate)."""
        self._algorithms.clear()
