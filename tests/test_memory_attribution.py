"""``benchmarks/memory_attribution.py`` at irecbench's toy sizes.

The tool runs one workload's warm-up and measured periods, checks the
registered paths, and prints resident bytes per owning store beside
``tracemalloc``'s traced total.  These tests run it as a script, the way it
is used, and read its table.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "benchmarks", "memory_attribution.py")


def attribution_table(workload):
    """Row label -> (bytes, objects), the header line and the traced total."""
    completed = subprocess.run(
        [sys.executable, SCRIPT, "--workload", workload, "--seed", "1", "--toy"],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    rows, totals = {}, {}
    for line in lines[2:]:
        label, numbers = line[2:50].strip(), [int(n) for n in line[50:].split()]
        (totals if line.startswith("#") else rows)[label] = numbers
    return lines[0], rows, totals


@pytest.mark.parametrize("workload", ["beacon_long", "beacon_churn"])
def test_each_store_has_a_row_and_the_rows_add_up(workload):
    header, rows, totals = attribution_table(workload)
    assert header.startswith("# %s seed=1 toy after " % workload)
    assert header.endswith("registered paths sound: yes")
    attributed, objects = totals["attributed total"]
    assert attributed == sum(size for size, _count in rows.values())
    assert objects == sum(count for _size, count in rows.values())
    # What no row claims is interpreter state and allocator slack, not a store.
    (traced,) = totals["tracemalloc traced total"]
    assert 0.75 * traced < attributed < traced
    for owner in (
        "beacons, open: _as_path",
        "beacons: headers",
        "beacons, terminated: entry",
        "ingress: _buckets",
        "verified-prefix cache: _digests",
        "egress: _records",
        "path service: _by_digest",
        "path service: _by_origin",
        "revocation state: _seen",
        "revocation state: applied_at",
        "revocation state: holder",
        "driver: collector",
    ):
        assert rows[owner][0] > 0, owner
    # A row with no bytes is not printed: no registered segment keeps an AS
    # path or links memo, and the driver keeps no round reports.
    for owner in ("beacons, terminated: _as_path", "beacons, terminated: _links"):
        assert owner not in rows
    assert not any(label.startswith("driver: round_reports") for label in rows)
