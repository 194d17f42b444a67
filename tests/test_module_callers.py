"""Every module under ``src/repro/`` has a caller that is not its own test.

An AST scan of ``src/``, ``benchmarks/`` and ``examples/``: a module counts
as called when a file that is neither a test nor a package ``__init__.py``
imports it — directly, or by importing one of its names through the
``__init__`` that re-exports it.  The modules known to fail that rule are
listed, and the list may only shrink: it is compared for equality, so the
test also fails when a listed module has gained a caller or is gone.

The same scan of ``src/`` holds three import rules.  Two are the sharded
runtime's: one module starts processes, and the simulation never imports
the package that shards it.  The third keeps one failure model: the
traffic engine reads availability from the shared ``LinkState`` and never
imports the packet-forwarding walk, so a second availability check cannot
come back unnoticed.

A rule keeps each scenario event checking itself: what an event
requires of its timeline and which ASes it ties to one shard live on the
event class, so only the modules that apply events to their own private
state may ``isinstance``-test one.

A last rule keeps the control service free of test-only API: every public
method of ``IrecControlService`` is referenced — as an attribute, or by a
string naming it — somewhere in ``src/``, ``benchmarks/`` or ``examples/``
outside a test file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The one module that imports a process API, and those APIs.
PROCESS_SPAWNER = "repro.parallel.coordinator"
PROCESS_MODULES = ("multiprocessing", "concurrent.futures")

#: The packet-forwarding walk the traffic engine must not import.
FORWARDING_WALK = "repro.dataplane.network"

#: The modules that may ``isinstance``-test a scenario event.  Compared for
#: equality, so the list can only shrink.
EVENT_APPLIERS = {
    "repro.simulation.beaconing",
    "repro.traffic.engine",
    "repro.parallel.coordinator",
}

#: Delete these or wire them to a real caller.
KNOWN_ORPHANS = {
    # Its caller was the legacy harness's ``parallel_e2e`` stage; ROADMAP
    # items 1 (irecbench ``--workers N``) and 6 (the sharding verdict)
    # decide whether it gets one back.
    "repro.parallel.coordinator",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, module: str, is_package: bool):
    """Yield ``(module, name or None)`` for every import statement of ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.split(".") if is_package else module.split(".")[:-1]
                package = package[: len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name


def _scan():
    modules = {}
    packages = {}
    for path in sorted(SRC.rglob("*.py")):
        (packages if path.name == "__init__.py" else modules)[_module_name(path)] = path
    # package -> exported name -> module the name comes from
    exports = {
        package: {
            name: base
            for base, name in _imports(path, package, is_package=True)
            if name is not None
        }
        for package, path in packages.items()
    }

    def resolve(base, name):
        """The module an import of ``name`` from ``base`` reaches, if any."""
        while True:
            if name is not None and f"{base}.{name}" in modules:
                return f"{base}.{name}"
            if base in modules:
                return base
            source = exports.get(base, {}).get(name)
            if source is None or source == base:  # not ours, or a sub-package
                return None
            base = source

    called = set()
    importers = list(modules.values())
    for directory in ("benchmarks", "examples"):
        importers += [
            path for path in sorted((ROOT / directory).rglob("*.py"))
            if not path.name.startswith("test_")
        ]
    for path in importers:
        own = _module_name(path) if SRC in path.parents else ""
        for base, name in _imports(path, own, is_package=False):
            target = resolve(base, name)
            if target is not None and target != own:
                called.add(target)
    return set(modules), called


def test_every_module_has_a_caller_outside_its_tests():
    modules, called = _scan()
    assert len(modules) > 50 and "repro.simulation.collector" in called  # the scan sees the tree
    orphans = modules - called
    assert orphans == KNOWN_ORPHANS, (
        f"new module(s) only a test or an __init__ imports: {sorted(orphans - KNOWN_ORPHANS)}; "
        f"listed but called or gone (drop from KNOWN_ORPHANS): {sorted(KNOWN_ORPHANS - orphans)}"
    )


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _src_imports():
    """Yield ``(importing module, imported module)`` for every import in ``src/``.

    ``from a import b`` yields both ``a`` and ``a.b``: ``b`` may be a module.
    """
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for base, name in _imports(path, module, is_package=path.name == "__init__.py"):
            yield module, base
            if name is not None:
                yield module, f"{base}.{name}"


def test_only_the_coordinator_imports_a_process_api():
    importers = {
        module
        for module, target in _src_imports()
        if any(_within(target, api) for api in PROCESS_MODULES)
    }
    assert importers == {PROCESS_SPAWNER}


def test_the_simulation_does_not_import_the_sharded_runtime():
    importers = {
        module
        for module, target in _src_imports()
        if _within(module, "repro.simulation") and _within(target, "repro.parallel")
    }
    assert importers == set()


def test_the_traffic_engine_does_not_import_the_forwarding_walk():
    package = FORWARDING_WALK.rsplit(".", 1)[0]
    init = SRC.joinpath(*package.split(".")) / "__init__.py"
    # ``from repro.dataplane import DataPlaneNetwork`` reaches the walk too.
    reexported = {
        f"{package}.{name}"
        for base, name in _imports(init, package, is_package=True)
        if base == FORWARDING_WALK
    }
    assert reexported  # the scan sees the package's re-exports
    importers = {
        module
        for module, target in _src_imports()
        if _within(module, "repro.traffic")
        and (_within(target, FORWARDING_WALK) or target in reexported)
    }
    assert importers == set()


def _event_classes():
    """Return the names of ``ScenarioEvent`` and every subclass of it."""
    path = SRC / "repro" / "simulation" / "events.py"
    names = {"ScenarioEvent"}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in names for base in node.bases
        ):
            names.add(node.name)
    return names


def test_only_the_event_appliers_isinstance_test_an_event():
    events = _event_classes()
    assert {"LinkFailure", "TopologyGrowth"} <= events  # the scan sees the classes
    testers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            kind = node.args[1]
            kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
            if any(getattr(k, "id", getattr(k, "attr", None)) in events for k in kinds):
                testers.add(_module_name(path))
    assert testers == EVENT_APPLIERS, (
        f"isinstance-tests a ScenarioEvent outside the appliers: "
        f"{sorted(testers - EVENT_APPLIERS)}; listed but no longer testing "
        f"(drop from EVENT_APPLIERS): {sorted(EVENT_APPLIERS - testers)}"
    )


def _non_test_sources():
    """Every ``.py`` file of ``src/``, ``benchmarks/`` and ``examples/`` but tests."""
    for directory in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def test_every_public_control_service_method_has_a_caller_outside_the_tests():
    path = SRC / "repro" / "core" / "control_service.py"
    (service,) = [
        node
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name == "IrecControlService"
    ]
    methods = {
        node.name
        for node in service.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert {"on_message_batch", "run_round"} <= methods  # the scan sees the class
    referenced = set()
    for source in _non_test_sources():
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    unused = methods - referenced
    assert not unused, (
        f"IrecControlService method(s) only tests call: {sorted(unused)}; "
        f"delete them or give them a caller"
    )
