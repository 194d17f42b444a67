"""Every module under ``src/repro/`` has a caller that is not its own test.

An AST scan of ``src/``, ``benchmarks/`` and ``examples/``: a module counts
as called when a file that is neither a test nor a package ``__init__.py``
imports it — directly, or by importing one of its names through the
``__init__`` that re-exports it.  The modules known to fail that rule are
listed, and the list may only shrink: it is compared for equality, so the
test also fails when a listed module has gained a caller or is gone.

The same scan of ``src/`` holds three import rules.  Two are the sharded
runtime's: one module starts processes, and the simulation never imports
the package that shards it.  The third keeps one data plane per question:
``repro.traffic`` reads availability from the shared ``LinkState``, chooses
paths with its own policies, and imports nothing from ``repro.dataplane``,
so neither a second availability check nor a second end-host selection
layer can come back unnoticed.

A rule keeps each scenario event checking itself: what an event
requires of its timeline and which ASes it ties to one shard live on the
event class, so only the modules that apply events to their own private
state may ``isinstance``-test one.

A last rule keeps the control service and the transport free of test-only
API: every public method of ``IrecControlService`` and of
``SimulatedTransport`` is referenced — as an attribute, or by a string
naming it — somewhere in ``src/``, ``benchmarks/`` or ``examples/``
outside a test file.  Its companion holds the same line for settable
values: every option of the classes and methods in ``API_OPTIONS`` is set
there too, or is listed with its reason in ``KEPT_OPTIONS``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The one module that imports a process API, and those APIs.
PROCESS_SPAWNER = "repro.parallel.coordinator"
PROCESS_MODULES = ("multiprocessing", "concurrent.futures")

#: The modules that may ``isinstance``-test a scenario event.  Compared for
#: equality, so the list can only shrink.
EVENT_APPLIERS = {
    "repro.simulation.beaconing",
    "repro.traffic.engine",
    "repro.parallel.coordinator",
}

#: Delete these or wire them to a real caller.
KNOWN_ORPHANS = {
    # Its caller was the legacy harness's ``parallel_e2e`` stage.  ROADMAP
    # item 2 drops irecbench's planned ``--workers N`` mode, and item 7's
    # sharding verdict keeps the package as the sharded ≡ single-process
    # oracle its tests drive.
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


def test_traffic_imports_nothing_from_the_dataplane():
    importers = {
        module
        for module, target in _src_imports()
        if _within(module, "repro.traffic") and _within(target, "repro.dataplane")
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


#: Classes whose public methods need a caller outside the tests: (file
#: under ``src/repro/``, the methods the scan must see).
API_CLASSES = {
    "IrecControlService": ("core/control_service.py", {"on_message_batch", "run_round"}),
    "SimulatedTransport": ("simulation/network.py", {"send_message", "inject_import"}),
    "CriteriaSet": ("core/criteria.py", {"select", "sort_key"}),
    "StandardMetrics": ("core/criteria.py", {"extract"}),
    "PathVector": ("core/algebra.py", {"dominates"}),
    "CriteriaSetAlgorithm": ("algorithms/criteria_algorithm.py", {"execute"}),
    "ExecutionContext": ("algorithms/base.py", set()),
    "ExecutionResult": ("algorithms/base.py", {"add", "beacons_for"}),
}


@pytest.mark.parametrize("class_name", sorted(API_CLASSES))
def test_every_public_method_has_a_caller_outside_the_tests(class_name):
    relative, sentinels = API_CLASSES[class_name]
    path = SRC / "repro" / relative
    (cls,) = [
        node
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    methods = {
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert sentinels <= methods  # the scan sees the class
    referenced = set()
    for source in _non_test_sources():
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    unused = methods - referenced
    assert not unused, (
        f"{class_name} method(s) only tests call: {sorted(unused)}; "
        f"delete them or give them a caller"
    )


#: Classes and methods whose options need a setter outside the tests, with
#: their file under ``src/repro/``.  ``"Class"`` covers the class's init
#: fields and ``__init__`` parameters, ``"Class.method"`` the method's
#: parameters.  An option is one of those with a default: a value a caller
#: may leave out.
API_OPTIONS = {
    "ControlMessage": "core/messages.py",
    "RevocationMessage": "core/messages.py",
    "RevocationState": "core/revocation.py",
    "IrecControlService.originate_revocation": "core/control_service.py",
    "IrecControlService.on_revocation": "core/control_service.py",
    "IrecControlService.originate_pull": "core/control_service.py",
    "SimulatedTransport.send_message": "simulation/network.py",
    "SimulatedTransport.inject_import": "simulation/network.py",
    "PathQueryFrontend": "core/query.py",
    "PullBasedDisjointnessOrchestrator": "core/pull.py",
    "BeaconingSimulation.add_pull_disjointness": "simulation/beaconing.py",
    "EgressGateway": "core/egress.py",
    "IPCChannel": "core/ipc.py",
    "RestrictedPythonAlgorithm": "core/sandbox.py",
}

#: Options of ``API_OPTIONS`` kept although nothing outside the tests sets
#: them, each with its reason.  Compared for equality, so the list can only
#: shrink.
KEPT_OPTIONS = {
    "PathQueryFrontend.capacity": (
        "the LRU bound: tests shrink it to reach eviction, which the default "
        "never reaches on a test-sized topology"
    ),
    "RestrictedPythonAlgorithm.step_budget": (
        "a resource bound on a foreign payload: tests shrink it to reach "
        "SandboxResourceError"
    ),
    "RestrictedPythonAlgorithm.time_budget_ms": (
        "a resource bound on a foreign payload: tests shrink it to reach "
        "SandboxResourceError"
    ),
    "RevocationMessage.signature": (
        "the message's proof of origin, not a choice: ``signed()`` fills it "
        "through ``dataclasses.replace``, which needs an init field"
    ),
}


def _is_dataclass(cls) -> bool:
    return any(
        getattr(decorator.func if isinstance(decorator, ast.Call) else decorator, "id", None)
        == "dataclass"
        for decorator in cls.decorator_list
    )


def _method(cls, name):
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _parameters(function):
    """``{name: (position after self, has a default)}`` of ``function``."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    parameters = {
        arg.arg: (index - 1, index >= first_default) for index, arg in enumerate(positional)
    }
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parameters[arg.arg] = (None, default is not None)
    parameters.pop("self", None)
    return parameters


def _defaulted_field(node) -> bool:
    """Whether a class-body statement declares an init field with a default."""
    if not (
        isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and node.value is not None
        and "ClassVar" not in ast.unparse(node.annotation)
    ):
        return False
    value = node.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("field", "_slot"):
        keywords = {keyword.arg: keyword.value for keyword in value.keywords}
        init = keywords.get("init")
        if value.func.id == "_slot" or (isinstance(init, ast.Constant) and init.value is False):
            return False
        return "default" in keywords or "default_factory" in keywords
    return True


def _own_nodes(scope):
    """Every node of a function's or module's body, nested scopes not entered."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _assignments(scope, target):
    """``(annotation or None, value or None)`` of each assignment to ``target``.

    ``target`` is a name, or ``"self.<attribute>"``.
    """
    for node in _own_nodes(scope):
        if isinstance(node, ast.Assign):
            if any(ast.unparse(each) == target for each in node.targets):
                yield None, node.value
        elif isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == target:
            yield node.annotation, node.value


def _annotation_names(annotation):
    """Every name an annotation mentions, quoted ones included."""
    names = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


class _Setters(ast.NodeVisitor):
    """Every call argument and attribute store of the given trees."""

    def __init__(self, trees):
        #: (callee name, keyword or position, value, enclosing function, class)
        self.arguments = []
        #: (attribute name, receiver, enclosing function, class, module)
        self.stores = []
        self._function = None
        self._class = None
        for tree in trees:
            self._module = tree
            self.visit(tree)

    def visit_ClassDef(self, node):
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node):
        outer, self._function = self._function, node
        self.generic_visit(node)
        self._function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        context = (self._function, self._class)
        for keyword in node.keywords:
            if keyword.arg is not None:
                self.arguments.append((callee, keyword.arg, keyword.value, *context))
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            self.arguments.append((callee, position, arg, *context))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        # ``x.count += 1`` updates a value; it does not choose one.
        self.generic_visit(node.target)
        self.visit(node.value)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            self.stores.append(
                (node.attr, node.value, self._function, self._class, self._module)
            )
        self.generic_visit(node)


class _OptionScan:
    """Decides whether code outside the tests sets an option.

    An option is set by a keyword (or a positional argument) of a call to
    its constructor, to a subclass's, to ``dataclasses.replace`` or to its
    method, or — for a class's option — by an attribute store on an object
    of that class or a subclass.  The receiver's class is read locally:
    ``self``, a parameter's or variable's annotation, a constructor call it
    was assigned, or an attribute of ``self`` that the enclosing class
    annotates or assigns; a receiver whose class cannot be read sets
    nothing.  Writes from the option's own class do not count: a class
    filling in its own field is not a caller choosing a value.  A value
    that forwards — reads a defaulted parameter of the calling method, a
    field of the calling dataclass, or a local assigned only such values —
    sets the option only if everything it forwards is set.
    """

    def __init__(self, sources=None):
        if sources is None:
            sources = {
                path: path.read_text(encoding="utf-8") for path in _non_test_sources()
            }
        trees = [ast.parse(text) for text in sources.values()]
        #: Every class, by name; ``src/`` comes first, so it wins a clash.
        self.classes = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, node)
        self.setters = _Setters(trees)
        self._decided = {}

    def options(self, class_name, method=None):
        """``{option: position or None}`` of a class or one of its methods."""
        cls = self.classes[class_name]
        function = _method(cls, method or "__init__")
        if method is not None:
            assert function is not None, f"{class_name}.{method} not found"
        options = {}
        if method is None and _is_dataclass(cls):
            options.update(
                (node.target.id, None) for node in cls.body if _defaulted_field(node)
            )
        if function is not None:
            options.update(
                (name, position)
                for name, (position, defaulted) in _parameters(function).items()
                if defaulted
            )
        return {name: at for name, at in options.items() if not name.startswith("_")}

    def family(self, class_name):
        """``class_name`` and every class that inherits from it."""
        family = {class_name}
        while True:
            heirs = {
                name
                for name, cls in self.classes.items()
                if name not in family
                and any(getattr(base, "id", getattr(base, "attr", None)) in family for base in cls.bases)
            }
            if not heirs:
                return family
            family |= heirs

    def _callees(self, class_name, method):
        if method not in (None, "__init__"):
            return {method}
        callees = self.family(class_name)
        if _is_dataclass(self.classes[class_name]):
            callees.add("replace")
        return callees

    def types(self, expr, function, class_name, module, seen=frozenset()):
        """The classes ``expr`` may hold, as far as a local reading tells."""
        if isinstance(expr, ast.Call):
            callee = getattr(expr.func, "id", None)
            return {callee} if callee in self.classes else set()
        if isinstance(expr, ast.Name) and expr.id == "self":
            return {class_name} if class_name is not None else set()
        if isinstance(expr, ast.Name):
            scope = function or module
            cls = None
        elif (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and class_name in self.classes
        ):
            cls = self.classes[class_name]
            scope = None
        else:
            return set()
        target = ast.unparse(expr)
        if (id(scope or cls), target) in seen:
            return set()
        seen = seen | {(id(scope or cls), target)}
        bindings = []
        if cls is None:
            bindings += _assignments(scope, target)
            if function is not None:
                args = function.args
                bindings += [
                    (arg.annotation, None)
                    for arg in args.posonlyargs + args.args + args.kwonlyargs
                    if arg.arg == target
                ]
        else:
            bindings += [
                (node.annotation, None)
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == expr.attr
            ]
            for method in cls.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bindings += [
                        (annotation, (value, method))
                        for annotation, value in _assignments(method, target)
                    ]
        types = set()
        for annotation, value in bindings:
            types |= _annotation_names(annotation) & set(self.classes)
            if value is None:
                continue
            value, where = value if cls is not None else (value, function)
            if value is not None:
                types |= self.types(value, where, class_name, module, seen)
        return types

    def is_set(self, class_name, method, name):
        key = (class_name, method, name)
        if key not in self._decided:
            self._decided[key] = False  # a forwarding cycle sets nothing
            self._decided[key] = self._find_setter(class_name, method, name)
        return self._decided[key]

    def _find_setter(self, class_name, method, name):
        own_class = method in (None, "__init__")
        if own_class:
            family = self.family(class_name)
            for attr, receiver, function, cls, module in self.setters.stores:
                if (
                    attr == name
                    and cls != class_name
                    and self.types(receiver, function, cls, module) & family
                ):
                    return True
        position = self.options(class_name, None if own_class else method).get(name)
        callees = self._callees(class_name, method)
        for callee, argument, value, function, cls in self.setters.arguments:
            if callee not in callees or argument not in (name, position):
                continue
            if own_class and cls == class_name:
                continue
            if self._value_sets(value, function, cls):
                return True
        return False

    def _value_sets(self, value, function, class_name, followed=frozenset()):
        """Whether a call argument chooses a value rather than forwarding none."""
        if isinstance(value, ast.Constant) and value.value is None:
            return False
        if function is None:
            return True
        cls = self.classes.get(class_name)
        in_method = cls is not None and _method(cls, function.name) is function
        parameters = _parameters(function)
        fields = set(self.options(class_name)) if in_method and _is_dataclass(cls) else set()
        for node in ast.walk(value):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                parameter = parameters.get(node.id)
                if parameter is not None:
                    # A plain or nested function's parameter is not followed.
                    if parameter[1] and in_method and not self.is_set(
                        class_name, function.name, node.id
                    ):
                        return False
                    continue
                if node.id in followed:
                    continue
                assigned = [value for _, value in _assignments(function, node.id) if value is not None]
                if assigned and not any(
                    self._value_sets(each, function, class_name, followed | {node.id})
                    for each in assigned
                ):
                    return False
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in fields
                and not self.is_set(class_name, None, node.attr)
            ):
                return False
        return True


@pytest.fixture(scope="module")
def option_scan():
    return _OptionScan()


@pytest.mark.parametrize("target", sorted(API_OPTIONS))
def test_every_option_has_a_setter_outside_the_tests(option_scan, target):
    class_name, _, method = target.partition(".")
    path = SRC / "repro" / API_OPTIONS[target]
    assert any(
        isinstance(node, ast.ClassDef) and node.name == class_name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ), f"{class_name} is not defined in {API_OPTIONS[target]}"
    options = option_scan.options(class_name, method or None)
    unset = {
        f"{target}.{name}"
        for name in options
        if not option_scan.is_set(class_name, method or None, name)
    }
    kept = {option for option in KEPT_OPTIONS if option.rpartition(".")[0] == target}
    assert unset == kept, (
        f"option(s) only tests set: {sorted(unset - kept)} — delete them or make "
        f"them constants; kept but now set or gone (drop from KEPT_OPTIONS): "
        f"{sorted(kept - unset)}"
    )


def test_every_kept_option_belongs_to_a_scanned_target():
    assert {option.rpartition(".")[0] for option in KEPT_OPTIONS} <= set(API_OPTIONS)


#: A small tree for the option rule's own tests: an options class, one
#: subclass, an unrelated class with a colliding attribute name and a
#: planner whose method forwards a defaulted parameter.
RULE_TREE = '''
from dataclasses import dataclass

@dataclass
class Knobs:
    name: str = "knobs"
    budget: int = 1

    def __post_init__(self):
        self.budget = 2

class Tuned(Knobs):
    pass

class Unrelated:
    def __init__(self):
        self.name = "unrelated"

def rename(other: Unrelated):
    other.name = "renamed"

class Holder:
    def __init__(self):
        self.knobs = Knobs()

class Planner:
    def add(self, paths=(), fixed=None):
        return Knobs(name=tuple(paths))

    def add_copied(self, paths=()):
        chosen = sorted(paths)
        return Knobs(name=chosen)
'''


@pytest.mark.parametrize(
    "caller, option, is_set",
    [
        # An attribute of the same name on an unrelated class sets nothing,
        # nor does the options class writing its own field.
        ("", "name", False),
        ("", "budget", False),
        # A store counts through the class, a subclass, or a holder's field.
        ("def tune(knobs: Knobs):\n    knobs.name = 'x'", "name", True),
        ("knobs = Knobs()\nknobs.name = 'x'", "name", True),
        ("class Sub(Knobs):\n    def __post_init__(self):\n        self.budget = 3", "budget", True),
        ("def tune(tuned: 'Tuned'):\n    tuned.budget = 3", "budget", True),
        (
            "class User(Holder):\n    def tune(self):\n        knobs = self.knobs\n"
            "        knobs.budget = 3",
            "budget",
            False,  # ``self.knobs`` is assigned in ``Holder``, not in ``User``
        ),
        (
            "class Holder2:\n    def __init__(self):\n        self.knobs = Knobs()\n"
            "    def tune(self):\n        knobs = self.knobs\n        knobs.budget = 3",
            "budget",
            True,
        ),
        # Updating a value is not choosing one.
        ("knobs = Knobs()\nknobs.budget += 1", "budget", False),
        # A value forwarded through a call sets the option only if the
        # forwarded parameter is set; a required parameter always is.
        ("Planner().add()", "name", False),
        ("Planner().add(fixed=1)", "name", False),
        ("Planner().add(paths=[1])", "name", True),
        ("Planner().add([1])", "name", True),
        ("Planner().add_copied()", "name", False),
        ("Planner().add_copied(paths=[1])", "name", True),
        (
            "class Strict:\n    def add(self, paths):\n        return Knobs(name=tuple(paths))",
            "name",
            True,
        ),
        ("Knobs(name=None)", "name", False),
        ("Tuned(budget=3)", "budget", True),
    ],
)
def test_the_option_rule_reads_receivers_and_forwarded_values(caller, option, is_set):
    scan = _OptionScan({"rule": RULE_TREE + "\n" + caller + "\n"})
    assert scan.is_set("Knobs", None, option) is is_set
