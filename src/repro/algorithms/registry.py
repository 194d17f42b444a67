"""Algorithm catalogue and payload (de)serialization.

On-demand routing ships algorithms by reference: the PCB carries an
algorithm identifier and the hash of its implementation, and executing ASes
fetch the payload from the origin AS, verify the hash, and run it inside a
sandbox (paper §IV-C, §V-C).  This module defines the payload format and
the catalogue that maps payloads back to executable
:class:`~repro.algorithms.base.RoutingAlgorithm` objects.

A payload is a JSON document with a ``kind`` discriminator:

``{"kind": "criteria_set", "spec": {...}, "paths_per_interface": n}``
    A declarative criteria set (see
    :meth:`repro.core.criteria.CriteriaSet.to_spec`), interpreted by
    :class:`~repro.algorithms.criteria_algorithm.CriteriaSetAlgorithm`.
    This is how an origin ships widest, shortest-widest, latency-bounded
    or Pareto selection; a spec naming a metric outside
    :data:`repro.core.criteria.METRICS` fails to decode.

``{"kind": "link_avoiding", "avoid_links": [...], "paths_per_interface": n}``
    The PD helper algorithm with an explicit link avoid set.

``{"kind": "builtin", "name": "...", "parameters": {...}}``
    One of the catalogued built-in algorithms with keyword parameters:
    ``ksp``, ``1sp``, ``5sp``, ``20sp``, ``delay``, ``hd`` and
    ``link-avoiding`` (:func:`default_catalog`).

``{"kind": "restricted_python", "source": "..."}``
    A restricted Python scoring function, validated and executed by the
    sandbox (see :mod:`repro.core.sandbox`); the IREC analogue of shipping
    WebAssembly bytecode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.base import RoutingAlgorithm
from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.pull_disjoint import LinkAvoidingAlgorithm
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.criteria import CriteriaSet
from repro.exceptions import AlgorithmError, ConfigurationError, UnknownAlgorithmError
from repro.topology.entities import normalize_link_id

#: Signature of a builtin algorithm factory: keyword parameters -> algorithm.
AlgorithmFactory = Callable[..., RoutingAlgorithm]


@dataclass
class AlgorithmCatalog:
    """Registry of named algorithm factories.

    The catalogue corresponds to the *beta tier* of the paper's
    standardization model (§VI): a public, append-only list of algorithm
    names that ASes may deploy in static RACs or reference from builtin
    on-demand payloads.
    """

    _factories: Dict[str, AlgorithmFactory] = field(default_factory=dict)

    def register(self, name: str, factory: AlgorithmFactory) -> None:
        """Register a factory under ``name`` (append-only).

        Raises:
            AlgorithmError: If the name is already taken.
        """
        if name in self._factories:
            raise AlgorithmError(f"algorithm {name!r} is already registered")
        self._factories[name] = factory

    def create(self, name: str, **parameters: object) -> RoutingAlgorithm:
        """Instantiate the algorithm registered under ``name``.

        Raises:
            UnknownAlgorithmError: If no factory is registered for ``name``.
        """
        factory = self._factories.get(name)
        if factory is None:
            raise UnknownAlgorithmError(name)
        return factory(**parameters)

    def names(self) -> Tuple[str, ...]:
        """Return the registered algorithm names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name in self._factories


def default_catalog() -> AlgorithmCatalog:
    """Return a catalogue pre-populated with every built-in algorithm."""
    catalog = AlgorithmCatalog()
    catalog.register("ksp", lambda k=1, **kw: KShortestPathAlgorithm(k=int(k)))
    catalog.register("1sp", lambda **kw: KShortestPathAlgorithm(k=1))
    catalog.register("5sp", lambda **kw: KShortestPathAlgorithm(k=5))
    catalog.register("20sp", lambda **kw: KShortestPathAlgorithm(k=20))
    catalog.register(
        "delay",
        lambda paths_per_interface=1, use_extended_paths=False, **kw: DelayOptimizationAlgorithm(
            paths_per_interface=int(paths_per_interface),
            use_extended_paths=bool(use_extended_paths),
        ),
    )
    catalog.register(
        "hd",
        lambda paths_per_interface=1, remember_propagations=True, **kw: HeuristicDisjointnessAlgorithm(
            paths_per_interface=int(paths_per_interface),
            remember_propagations=bool(remember_propagations),
        ),
    )
    catalog.register(
        "link-avoiding",
        lambda paths_per_interface=1, **kw: LinkAvoidingAlgorithm(
            paths_per_interface=int(paths_per_interface)
        ),
    )
    return catalog


# ----------------------------------------------------------------------
# on-demand payload (de)serialization
# ----------------------------------------------------------------------
def encode_criteria_payload(criteria_set: CriteriaSet, paths_per_interface: int = 1) -> bytes:
    """Serialize a criteria-set algorithm into an on-demand payload."""
    document = {
        "kind": "criteria_set",
        "spec": criteria_set.to_spec(),
        "paths_per_interface": int(paths_per_interface),
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def encode_link_avoiding_payload(
    avoid_links: Sequence, paths_per_interface: int = 1
) -> bytes:
    """Serialize a link-avoiding (PD helper) algorithm into a payload."""
    normalised = sorted(
        normalize_link_id(tuple(map(int, a)), tuple(map(int, b))) for a, b in avoid_links
    )
    document = {
        "kind": "link_avoiding",
        "avoid_links": [[list(a), list(b)] for a, b in normalised],
        "paths_per_interface": int(paths_per_interface),
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def encode_builtin_payload(name: str, parameters: Optional[Mapping[str, object]] = None) -> bytes:
    """Serialize a reference to a catalogued builtin algorithm."""
    document = {
        "kind": "builtin",
        "name": name,
        "parameters": dict(parameters or {}),
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def encode_restricted_python_payload(source: str, paths_per_interface: int = 1) -> bytes:
    """Serialize a restricted-Python scoring payload (see :mod:`repro.core.sandbox`)."""
    document = {
        "kind": "restricted_python",
        "source": source,
        "paths_per_interface": int(paths_per_interface),
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def decode_payload(
    payload: bytes, catalog: Optional[AlgorithmCatalog] = None
) -> RoutingAlgorithm:
    """Reconstruct a routing algorithm from an on-demand payload.

    Args:
        payload: The payload bytes as fetched from the origin AS.
        catalog: Catalogue used to resolve ``builtin`` payloads; defaults to
            :func:`default_catalog`.

    Raises:
        AlgorithmError: If the payload is malformed or of unknown kind.
    """
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise AlgorithmError(f"malformed algorithm payload: {exc}") from exc
    if not isinstance(document, dict) or "kind" not in document:
        raise AlgorithmError("algorithm payload must be an object with a 'kind' field")

    kind = document["kind"]
    try:
        return _decode_document(kind, document, catalog)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigurationError) as exc:
        # A payload comes from a remote AS: a missing field or a value of
        # the wrong type fails its bucket, not the run.
        raise AlgorithmError(f"malformed {kind!r} algorithm payload: {exc!r}") from exc


def _decode_document(
    kind: object, document: Dict[str, object], catalog: Optional[AlgorithmCatalog]
) -> RoutingAlgorithm:
    """Build the algorithm a parsed payload document describes."""
    if kind == "criteria_set":
        criteria_set = CriteriaSet.from_spec(document["spec"])
        return CriteriaSetAlgorithm(
            criteria_set=criteria_set,
            paths_per_interface=int(document.get("paths_per_interface", 1)),
        )
    if kind == "link_avoiding":
        raw_links: List = document.get("avoid_links", [])
        links = [
            (tuple(int(x) for x in a), tuple(int(x) for x in b)) for a, b in raw_links
        ]
        return LinkAvoidingAlgorithm(
            avoid_links=frozenset(normalize_link_id(a, b) for a, b in links),
            paths_per_interface=int(document.get("paths_per_interface", 1)),
        )
    if kind == "builtin":
        effective_catalog = catalog or default_catalog()
        parameters = document.get("parameters", {})
        if not isinstance(parameters, dict):
            raise AlgorithmError("builtin payload parameters must be an object")
        return effective_catalog.create(str(document["name"]), **parameters)
    if kind == "restricted_python":
        # Imported lazily to avoid a circular import at module load time
        # (the sandbox imports the algorithm base classes).
        from repro.core.sandbox import RestrictedPythonAlgorithm

        return RestrictedPythonAlgorithm(
            source=str(document["source"]),
            paths_per_interface=int(document.get("paths_per_interface", 1)),
        )
    raise AlgorithmError(f"unknown algorithm payload kind {kind!r}")
