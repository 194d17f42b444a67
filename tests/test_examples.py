"""Smoke tests that execute the example applications end to end.

The examples are part of the public deliverable; these tests run their
``main()`` functions (the faster ones in full, the slower ones indirectly
through their building blocks) so that API drift breaks the build instead
of the documentation.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    """Import an example script as a module without executing ``main()``."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExampleScripts:
    def test_examples_exist(self):
        expected = {
            "quickstart.py",
            "multi_criteria_paths.py",
            "on_demand_routing.py",
            "disjoint_paths.py",
            "failover_and_policies.py",
            "dynamic_failover.py",
            "traffic_failover.py",
        }
        present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert expected <= present

    def test_quickstart_runs(self, capsys):
        module = load_example("quickstart.py")
        module.main()
        output = capsys.readouterr().out
        assert "Topology:" in output
        assert "Paths registered" in output
        assert "Lowest-latency choice" in output

    def test_multi_criteria_paths_runs(self, capsys):
        module = load_example("multi_criteria_paths.py")
        module.main()
        output = capsys.readouterr().out
        assert "VoIP" in output
        assert "Live video" in output
        # All three applications found a (different) path and none failed on
        # the data plane.
        assert "FAILED" not in output
        assert output.count("->") >= 3

    def test_multi_criteria_topology_builder(self):
        module = load_example("multi_criteria_paths.py")
        topology = module.build_figure1_topology()
        assert topology.num_ases == 6
        assert topology.num_links == 7
        assert topology.is_connected()

    def test_on_demand_routing_runs(self, capsys):
        module = load_example("on_demand_routing.py")
        module.main()
        output = capsys.readouterr().out
        assert "Pull-based, on-demand paths" in output
        assert "live-video-60ms" in output

    def test_failover_and_policies_runs(self, capsys):
        module = load_example("failover_and_policies.py")
        module.main()
        output = capsys.readouterr().out
        assert "switched to the link-disjoint paths" in output
        # After the failure traffic still flows, and not over the primary
        # (path 0); a packet forced over the primary is dropped as down.
        (after,) = [line.split() for line in output.splitlines() if line.startswith("after failure")]
        carried, primary_used = float(after[2]), after[4]
        assert carried > 0.0 and primary_used == "False"
        assert "forced over the failed primary path" in output and "is down" in output

    def test_dynamic_failover_runs(self, capsys):
        module = load_example("dynamic_failover.py")
        module.main()
        output = capsys.readouterr().out
        assert "Scripted timeline" in output
        assert "fail_link" in output and "as_leave" in output
        assert "time to recovery" in output
        # The scripted run ends fully recovered, deterministically.
        assert "Outage at the end of the run: 0 ms" in output

    def test_traffic_failover_runs(self, capsys):
        # The trace digest it prints is pinned by tests/test_traffic_engine.py.
        module = load_example("traffic_failover.py")
        module.main()
        output = capsys.readouterr().out
        assert "flow groups" in output and "Goodput (carried Mbit/s" in output
        assert "Flow groups broken by the failure" in output
        assert "Traffic trace digest:" in output

    @pytest.mark.slow
    def test_disjoint_paths_runs(self, capsys):
        module = load_example("disjoint_paths.py")
        module.main()
        output = capsys.readouterr().out
        assert "link-disjoint paths collected" in output
        assert "Tolerable link failures" in output
