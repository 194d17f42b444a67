"""Resident bytes of one irecbench workload, attributed to the stores that own them.

    python3 benchmarks/memory_attribution.py --workload beacon_long --seed 1 [--toy]

Builds the workload's inputs with irecbench's ``workloads`` module, runs its
warm-up and measured beaconing periods, and checks irecbench's
``registered_paths_are_sound`` -- the state irecbench's
``mem.rss_after_beaconing_mb`` reads.  It then walks the simulation's
objects and prints, per owning store, the bytes (``sys.getsizeof``) and
object count of everything reachable from that store that no store before
it claimed.  The owners, in their fixed order:

1. the topology and every AS's local view (the hop constants beacons share),
2. the headers of the beacons the stores keep, then the beacons, open and
   terminated apart, one row per slot (the entry, the link id and each memo),
3. the ingress database (records, buckets, link index, bucket order) and
   the verified-prefix cache,
4. the egress database,
5. the path service's records and each of its indexes,
6. the query frontends' caches, then the revocation state (dedup store,
   withdrawal ledger, negative caches, ...), one row per attribute,
7. everything else the control services hold (gateways, RACs and their
   algorithms' state, ...),
8. each attribute of the period driver (scheduler and messages in flight,
   transport inboxes, collector, ...).

Rows are summed over all ASes.  ``tracemalloc``'s traced total -- every
block allocated since the workload's inputs were built and still alive --
is printed beside the attributed total; what it holds beyond them is
interpreter state and the rows' containers' over-allocation.  Runs under
``PYTHONHASHSEED=0``, as irecbench does, so a table repeats exactly.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc
import types
from typing import Dict, Iterable, List

HERE = os.path.dirname(os.path.abspath(__file__))
IRECBENCH = os.path.join(HERE, "irecbench")
SOURCE = os.path.normpath(os.path.join(HERE, "..", "src"))

#: Objects no store owns: classes, modules and code, and bound methods, whose
#: ``__self__`` is the object that registered them as a callback.
_NEVER_OWNED = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.CodeType,
)


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--toy", action="store_true", help="irecbench's toy sizes")
    return parser.parse_args(argv)


class Attribution:
    """Rows of ``(bytes, objects)`` per owner; the first owner to reach an object keeps it.

    Objects in ``boundary`` are reached only as a row's own roots: a walk
    from one store stops at another store's holder instead of claiming it.
    """

    def __init__(self, boundary: Iterable[object]) -> None:
        self._boundary = {id(obj) for obj in boundary}
        self._claimed: set = set()
        self.rows: Dict[str, List[int]] = {}

    def claim(self, label: str, roots: Iterable[object]) -> None:
        """Add to row ``label`` every unclaimed object reachable from ``roots``."""
        row = self.rows.setdefault(label, [0, 0])
        boundary = self._boundary
        pending = []
        for root in roots:
            self._take(root, row, pending)
        while pending:
            obj = pending.pop()
            if id(obj) not in boundary:
                self._take(obj, row, pending)

    def claim_shallow(self, label: str, objects: Iterable[object]) -> None:
        """Add to row ``label`` the unclaimed ``objects`` themselves, not what they refer to."""
        row = self.rows.setdefault(label, [0, 0])
        for obj in objects:
            if id(obj) not in self._claimed:
                self._claimed.add(id(obj))
                row[0] += sys.getsizeof(obj)
                row[1] += 1

    def _take(self, obj: object, row: List[int], pending: list) -> None:
        if id(obj) in self._claimed or isinstance(obj, _NEVER_OWNED):
            return
        self._claimed.add(id(obj))
        row[0] += sys.getsizeof(obj)
        row[1] += 1
        pending.extend(gc.get_referents(obj))


def _stored_beacons(sim) -> List[object]:
    """Every beacon the stores keep, and every ancestor along ``parent``."""
    pending = []
    for service in sim.services.values():
        for stored in service.ingress.database.all_beacons():
            pending += [stored.beacon, stored._segment]
        pending += [path.segment for path in service.path_service.all_paths()]
        pending += [beacon for beacon, _at_ms in service.pull_results]
    seen: Dict[int, object] = {}
    while pending:
        beacon = pending.pop()
        if beacon is not None and id(beacon) not in seen:
            seen[id(beacon)] = beacon
            pending.append(beacon.parent)
    return list(seen.values())


def attribute(sim) -> Attribution:
    """Walk ``sim`` and attribute its objects to their owners (module docstring)."""
    services = list(sim.services.values())
    holders = []
    for service in services:
        holders += [
            service.ingress.database,
            service.ingress.verified_prefixes,
            service.egress.database,
            service.path_service,
            service.query_frontend,
            service.revocations,
        ]
    driver = list(vars(sim).items())
    attribution = Attribution(
        [sim, *services, *holders, *(value for _name, value in driver)]
    )

    attribution.claim("topology and local views", [sim.topology, *(s.view for s in services)])

    beacons = _stored_beacons(sim)
    headers = {id(beacon.header): beacon.header for beacon in beacons}
    attribution.claim("beacons: headers", headers.values())
    # The header and the parent are rows of their own (above, and the
    # parent's own row): a slot row holds what the one beacon adds.
    slots = []
    if beacons:
        slots = [s for s in type(beacons[0]).__slots__ if s not in ("header", "parent")]
    for kind, terminated in (("open", False), ("terminated", True)):
        group = [beacon for beacon in beacons if beacon.is_terminated is terminated]
        attribution.claim_shallow("beacons, %s: objects" % kind, group)
        for slot in slots:
            values = [getattr(beacon, slot) for beacon in group]
            attribution.claim(
                "beacons, %s: %s" % (kind, slot), [v for v in values if v is not None]
            )

    def claim_each_attribute(label, store_of):
        for service in services:
            store = store_of(service)
            for name, value in vars(store).items():
                attribution.claim("%s: %s" % (label, name), [value])
            attribution.claim_shallow("%s: holder" % label, [store])

    for label, store_of in (
        ("ingress", lambda s: s.ingress.database),
        ("verified-prefix cache", lambda s: s.ingress.verified_prefixes),
        ("egress", lambda s: s.egress.database),
        ("path service", lambda s: s.path_service),
    ):
        claim_each_attribute(label, store_of)
    for service in services:
        attribution.claim("query caches", [service.query_frontend])
    claim_each_attribute("revocation state", lambda s: s.revocations)
    attribution.claim("control services, other state", services)
    for name, value in driver:
        attribution.claim("driver: %s" % name, [value])
    attribution.claim_shallow("driver: holder", [sim])
    return attribution


def run_workload(workload, seed: int, toy: bool):
    """The simulation after warm-up and the measured periods; is every path sound?"""
    import harness
    import workloads

    inputs = workload.build(seed, toy)
    sim = harness.build_simulation(inputs)
    plan = workloads.TOY_PLAN if toy else workload.plan
    for _ in range(inputs.warmup_periods + plan.periods):
        sim.run_period()
    return sim, harness.registered_paths_are_sound(sim)


def print_table(attribution: Attribution, traced: int) -> None:
    print("# %-48s %12s %10s" % ("owner", "bytes", "objects"))
    total = objects = 0
    for label, (size, count) in attribution.rows.items():
        total += size
        objects += count
        if size:
            print("  %-48s %12d %10d" % (label, size, count))
    print("# %-48s %12d %10d" % ("attributed total", total, objects))
    print("# %-48s %12d" % ("tracemalloc traced total", traced))


def main(argv) -> int:
    arguments = parse_arguments(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        environment = dict(os.environ, PYTHONHASHSEED="0")
        command = [sys.executable, os.path.abspath(__file__)] + list(argv)
        os.execve(sys.executable, command, environment)
    sys.path[:0] = [IRECBENCH, SOURCE]
    import harness  # noqa: F401 -- before tracing starts: imports are no state of the run
    import workloads

    try:
        workload = workloads.workload_named(arguments.workload)
    except KeyError:
        print("memory_attribution: unknown workload %r" % arguments.workload, file=sys.stderr)
        return 2

    tracemalloc.start()
    sim, sound = run_workload(workload, arguments.seed, arguments.toy)
    gc.collect()
    traced = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()

    print(
        "# %s seed=%d%s after %d periods: registered paths sound: %s"
        % (
            workload.name,
            arguments.seed,
            " toy" if arguments.toy else "",
            sim.periods_run,
            "yes" if sound else "NO",
        )
    )
    print_table(attribute(sim), traced)
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
