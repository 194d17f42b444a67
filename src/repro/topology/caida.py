"""Reader and writer for a geo-rel style topology exchange format.

The paper builds its simulation topology from the CAIDA AS-relationship
geolocation (geo-rel) dataset, which records, per inter-domain link, the two
ASes, their business relationship and the city where the link is located.
That dataset cannot be redistributed, so the library ships a synthetic
generator (:mod:`repro.topology.generator`).  For users who *do* have access
to suitable data, this module defines a small line-oriented text format and
converts it to and from :class:`~repro.topology.graph.Topology` objects, so
real data can be dropped in without code changes.

Format (one link per line, ``|``-separated, ``#`` starts a comment)::

    as_a|as_b|relationship|lat_a|lon_a|lat_b|lon_b|bandwidth_mbps

``relationship`` is ``p2c`` (``as_a`` is the customer of ``as_b``), ``p2p``
or ``core``.  Latency is always derived from the great-circle distance, as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.exceptions import TopologyError
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.geo import GeoCoordinate, propagation_delay_ms
from repro.topology.graph import Topology

_RELATIONSHIP_TOKENS: Dict[str, Relationship] = {
    "p2c": Relationship.CUSTOMER_PROVIDER,
    "p2p": Relationship.PEER,
    "core": Relationship.CORE,
}
_TOKENS_BY_RELATIONSHIP = {value: key for key, value in _RELATIONSHIP_TOKENS.items()}

#: Bandwidth assumed when a record omits the optional bandwidth column.
DEFAULT_BANDWIDTH_MBPS = 10_000.0


@dataclass(frozen=True)
class GeoRelRecord:
    """One parsed line of the geo-rel exchange format."""

    as_a: int
    as_b: int
    relationship: Relationship
    location_a: GeoCoordinate
    location_b: GeoCoordinate
    bandwidth_mbps: float = DEFAULT_BANDWIDTH_MBPS


def parse_line(line: str) -> GeoRelRecord:
    """Parse one non-comment line of the exchange format.

    Raises:
        TopologyError: If the line is malformed.
    """
    fields = [f.strip() for f in line.strip().split("|")]
    if len(fields) not in (7, 8):
        raise TopologyError(f"expected 7 or 8 fields, got {len(fields)}: {line!r}")
    try:
        as_a = int(fields[0])
        as_b = int(fields[1])
        relationship = _RELATIONSHIP_TOKENS[fields[2]]
        location_a = GeoCoordinate(float(fields[3]), float(fields[4]))
        location_b = GeoCoordinate(float(fields[5]), float(fields[6]))
        bandwidth = float(fields[7]) if len(fields) == 8 else DEFAULT_BANDWIDTH_MBPS
    except (ValueError, KeyError) as exc:
        raise TopologyError(f"malformed geo-rel line {line!r}: {exc}") from exc
    return GeoRelRecord(
        as_a=as_a,
        as_b=as_b,
        relationship=relationship,
        location_a=location_a,
        location_b=location_b,
        bandwidth_mbps=bandwidth,
    )


def parse_lines(lines: Iterable[str]) -> List[GeoRelRecord]:
    """Parse an iterable of lines, skipping blank lines and comments."""
    records = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append(parse_line(stripped))
    return records


def records_to_topology(records: Iterable[GeoRelRecord]) -> Topology:
    """Build a :class:`Topology` from parsed geo-rel records.

    Every record becomes one inter-domain link with a fresh interface on
    each endpoint AS, located at the record's per-endpoint coordinates.
    Link latency is the great-circle fibre delay between the endpoints.
    """
    topology = Topology()
    next_interface: Dict[int, int] = {}

    def ensure_as(as_id: int) -> ASInfo:
        if as_id not in topology:
            topology.add_as(ASInfo(as_id=as_id))
            next_interface[as_id] = 1
        return topology.as_info(as_id)

    def new_interface(as_id: int, location: GeoCoordinate) -> Interface:
        info = ensure_as(as_id)
        interface = Interface(as_id=as_id, interface_id=next_interface[as_id], location=location)
        next_interface[as_id] += 1
        info.add_interface(interface)
        return interface

    for record in records:
        interface_a = new_interface(record.as_a, record.location_a)
        interface_b = new_interface(record.as_b, record.location_b)
        latency = max(0.05, propagation_delay_ms(record.location_a, record.location_b))
        topology.add_link(
            Link(
                interface_a=interface_a.key,
                interface_b=interface_b.key,
                latency_ms=latency,
                bandwidth_mbps=record.bandwidth_mbps,
                relationship=record.relationship,
            )
        )
    return topology


def load_topology(path: Union[str, Path]) -> Topology:
    """Load a topology from a geo-rel exchange file."""
    content = Path(path).read_text(encoding="utf-8")
    return records_to_topology(parse_lines(content.splitlines()))


def topology_to_records(topology: Topology) -> List[GeoRelRecord]:
    """Convert a topology back into geo-rel records (one per link)."""
    records = []
    for link in topology.links.values():
        location_a = topology.interface(link.interface_a).location
        location_b = topology.interface(link.interface_b).location
        records.append(
            GeoRelRecord(
                as_a=link.interface_a[0],
                as_b=link.interface_b[0],
                relationship=link.relationship,
                location_a=location_a,
                location_b=location_b,
                bandwidth_mbps=link.bandwidth_mbps,
            )
        )
    return records


def format_record(record: GeoRelRecord) -> str:
    """Format one record as an exchange-format line."""
    return "|".join(
        [
            str(record.as_a),
            str(record.as_b),
            _TOKENS_BY_RELATIONSHIP[record.relationship],
            f"{record.location_a.latitude:.4f}",
            f"{record.location_a.longitude:.4f}",
            f"{record.location_b.latitude:.4f}",
            f"{record.location_b.longitude:.4f}",
            f"{record.bandwidth_mbps:.1f}",
        ]
    )


def dump_topology(topology: Topology, path: Union[str, Path]) -> None:
    """Write ``topology`` to ``path`` in the exchange format."""
    lines = ["# geo-rel exchange format: as_a|as_b|rel|lat_a|lon_a|lat_b|lon_b|bw_mbps"]
    lines.extend(format_record(record) for record in topology_to_records(topology))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
