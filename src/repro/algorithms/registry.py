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

``{"kind": "builtin", "name": "..."}``
    One of the catalogued built-in algorithms, by name and without
    parameters: ``1sp``, ``5sp``, ``20sp``, ``delay``, ``hd`` and
    ``link-avoiding`` (:data:`BUILTIN_ALGORITHMS`).

``{"kind": "restricted_python", "source": "..."}``
    A restricted Python scoring function, validated and executed by the
    sandbox (see :mod:`repro.core.sandbox`); the IREC analogue of shipping
    WebAssembly bytecode.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Sequence

from repro.algorithms.base import RoutingAlgorithm
from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.pull_disjoint import LinkAvoidingAlgorithm
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.criteria import CriteriaSet
from repro.exceptions import AlgorithmError, ConfigurationError, UnknownAlgorithmError
from repro.topology.entities import normalize_link_id

#: The catalogued built-in algorithms by name, each a zero-argument
#: factory: the *beta tier* of the paper's standardization model (§VI), a
#: public list of algorithm names that ASes may reference from builtin
#: on-demand payloads.
BUILTIN_ALGORITHMS: Dict[str, Callable[[], RoutingAlgorithm]] = {
    "1sp": lambda: KShortestPathAlgorithm(k=1),
    "5sp": lambda: KShortestPathAlgorithm(k=5),
    "20sp": lambda: KShortestPathAlgorithm(k=20),
    "delay": DelayOptimizationAlgorithm,
    "hd": HeuristicDisjointnessAlgorithm,
    "link-avoiding": LinkAvoidingAlgorithm,
}


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


def encode_builtin_payload(name: str) -> bytes:
    """Serialize a reference to a catalogued builtin algorithm."""
    document = {"kind": "builtin", "name": name}
    return json.dumps(document, sort_keys=True).encode("utf-8")


def encode_restricted_python_payload(source: str, paths_per_interface: int = 1) -> bytes:
    """Serialize a restricted-Python scoring payload (see :mod:`repro.core.sandbox`)."""
    document = {
        "kind": "restricted_python",
        "source": source,
        "paths_per_interface": int(paths_per_interface),
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def decode_payload(payload: bytes) -> RoutingAlgorithm:
    """Reconstruct a routing algorithm from an on-demand payload.

    ``builtin`` payloads are resolved in :data:`BUILTIN_ALGORITHMS`.

    Args:
        payload: The payload bytes as fetched from the origin AS.

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
        return _decode_document(kind, document)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigurationError) as exc:
        # A payload comes from a remote AS: a missing field or a value of
        # the wrong type fails its bucket, not the run.
        raise AlgorithmError(f"malformed {kind!r} algorithm payload: {exc!r}") from exc


def _decode_document(kind: object, document: Dict[str, object]) -> RoutingAlgorithm:
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
        name = str(document["name"])
        factory = BUILTIN_ALGORITHMS.get(name)
        if factory is None:
            raise UnknownAlgorithmError(name)
        return factory()
    if kind == "restricted_python":
        # Imported lazily to avoid a circular import at module load time
        # (the sandbox imports the algorithm base classes).
        from repro.core.sandbox import RestrictedPythonAlgorithm

        return RestrictedPythonAlgorithm(
            source=str(document["source"]),
            paths_per_interface=int(document.get("paths_per_interface", 1)),
        )
    raise AlgorithmError(f"unknown algorithm payload kind {kind!r}")
