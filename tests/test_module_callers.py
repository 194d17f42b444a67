"""Every module under ``src/repro/`` has a caller that is not its own test.

An AST scan of ``src/``, ``benchmarks/`` and ``examples/``: a module counts
as called when a file that is neither a test nor a package ``__init__.py``
imports it — directly, or by importing one of its names through the
``__init__`` that re-exports it.  The list of modules known to fail that
rule is empty, and it is compared for equality, so it stays empty.

The same scan of ``src/`` holds two import rules.  The simulation runs in
one process, so no module imports a process API.  And there is one data
plane per question: ``repro.traffic`` reads availability from the shared
``LinkState``, chooses paths with its own policies, and imports nothing
from ``repro.dataplane``, so neither a second availability check nor a
second end-host selection layer can come back unnoticed.

A rule keeps each scenario event checking itself: what an event
requires of its timeline lives on the event class, so only the modules
that apply events to their own private state may ``isinstance``-test one.

A last rule keeps the package free of test-only API: every public name
under ``src/repro/`` — a module-level class or function, a method or a
property — is referenced somewhere in ``src/``, ``benchmarks/`` or
``examples/`` outside a test file.  A method or property counts as
referenced only as an attribute or a string; a module-level name also as a
loaded name, so a local variable that shares a method's name hides
nothing.  Its companion holds the same line for settable values: every
option of every class, public method and public module-level function is
set there too.  Both rules scan the whole tree once and report module by
module, so a failure names the module it is in.  Each rule keeps one list
of exceptions, ``KEPT_API`` and ``KEPT_OPTIONS``, with a reason per entry.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The process APIs no module under ``src/`` imports.
PROCESS_MODULES = ("multiprocessing", "concurrent.futures")

#: The modules that may ``isinstance``-test a scenario event.  Compared for
#: equality, so the list can only shrink.
EVENT_APPLIERS = {
    "repro.simulation.beaconing",
    "repro.traffic.engine",
}

#: Modules only tests import.  Compared for equality: it stays empty.
KNOWN_ORPHANS = set()


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


def test_no_module_imports_a_process_api():
    importers = {
        module
        for module, target in _src_imports()
        if any(_within(target, api) for api in PROCESS_MODULES)
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


@functools.lru_cache(maxsize=None)
def _public_api():
    """``{qualified name: (module, name, is a member)}`` of every public
    name under ``src/repro/``.

    A public name is a module-level class or function, or a method or
    property of any class (a member), whose name does not start with ``_``.
    """
    api = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                api[f"{module}.{node.name}"] = module, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        api[f"{module}.{node.name}.{item.name}"] = module, item.name, True
    return api


def _defining_modules():
    """Every module under ``src/repro/`` that defines a class or function:
    the rules below run once per module, so a failure names its module."""
    return sorted(
        _module_name(path)
        for path in (SRC / "repro").rglob("*.py")
        if any(
            isinstance(node, (ast.ClassDef, ast.FunctionDef))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
        )
    )


def _mentions(trees):
    """``(members, names)`` the trees mention.

    ``members`` holds every attribute and string: what can name a method or
    a property.  ``names`` holds those and every loaded name: what can name
    a module-level class or function.  An ``__all__`` list re-exports
    names; it calls nothing, so it is not read.
    """
    members, names = set(), set()
    for tree in trees:
        exported = {
            id(constant)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for constant in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                members.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in exported
            ):
                members.add(node.value)
    return members, names | members


@functools.lru_cache(maxsize=None)
def _references():
    """What the files outside the tests mention (see :func:`_mentions`).  A
    package ``__init__.py`` re-exports names; it calls nothing, so it is
    not read."""
    return _mentions(
        ast.parse(source.read_text(encoding="utf-8"))
        for source in _non_test_sources()
        if source.name != "__init__.py"
    )


def _unreferenced(api, references):
    """``{module: public names of it that ``references`` do not mention}``."""
    members, names = references
    unused = {}
    for qualified, (module, name, is_member) in api.items():
        if name not in (members if is_member else names):
            unused.setdefault(module, set()).add(qualified)
    return unused


#: Public names nothing outside the tests references, each with its reason.
#: Compared for equality, module by module (and a kept name must still be
#: defined), so the list can only shrink.
KEPT_API = {
    "repro.core.algebra.pareto_frontier_naive": (
        "the reference implementation the property tests compare "
        "pareto_frontier against"
    ),
}


@functools.lru_cache(maxsize=None)
def _unused_api():
    """``{module: public names of it that nothing outside the tests references}``."""
    return _unreferenced(_public_api(), _references())


def test_the_name_rule_sees_the_tree():
    api = _public_api()
    assert len(api) > 500 and "repro.core.control_service.IrecControlService.run_round" in api
    assert len(_defining_modules()) > 50
    assert "repro.core.control_service.IrecControlService.run_round" not in set().union(
        *_unused_api().values()
    )


@pytest.mark.parametrize(
    "caller, unused",
    [
        # A loaded name (a local variable, a call of the module-level
        # function) counts for the function, never for the method ...
        ("def fold(ledgers):\n    merge = {}\n    return merge", {"Ledger.merge"}),
        ("def fold():\n    return merge()", {"Ledger.merge"}),
        # ... while an attribute or a string counts for both.
        ("def fold(ledger):\n    return ledger.merge", set()),
        ("def fold(ledger):\n    return getattr(ledger, 'merge')", set()),
    ],
    ids=["local-variable", "function-call", "attribute", "string"],
)
def test_the_name_rule_counts_a_member_only_through_an_attribute(caller, unused):
    api = {
        "Ledger": ("rule", "Ledger", False),
        "Ledger.merge": ("rule", "merge", True),
        "merge": ("rule", "merge", False),
    }
    references = _mentions([ast.parse(caller)])
    assert _unreferenced(api, references).get("rule", set()) == unused | {"Ledger"}


def test_every_kept_name_is_a_public_name():
    """A kept name whose definition is gone would belong to no module's test."""
    gone = set(KEPT_API) - set(_public_api())
    assert not gone, f"kept but no longer defined (drop from KEPT_API): {sorted(gone)}"


@pytest.mark.parametrize("module", _defining_modules())
def test_every_public_name_has_a_caller_outside_the_tests(module):
    unused = _unused_api().get(module, set())
    api = _public_api()
    kept = {qualified for qualified in KEPT_API if api.get(qualified, (None,))[0] == module}
    assert unused == kept, (
        f"public name(s) only tests reference: {sorted(unused - kept)} — "
        f"delete them or give them a caller; kept but now referenced "
        f"(drop from KEPT_API): {sorted(kept - unused)}"
    )


def _option_targets():
    """``(module, class or None, method or None)`` of every class, every
    public method of a class and every public module-level function under
    ``src/repro/``: ``(Class, None)`` covers the class's init fields and
    ``__init__`` parameters, ``(Class, method)`` the method's parameters
    and ``(None, function)`` the function's."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                yield module, node.name, None
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield module, node.name, item.name
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, None, node.name


def _owner(class_name, method) -> str:
    """The prefix an option's name carries: ``Class``, ``Class.method`` or ``function``."""
    return ".".join(part for part in (class_name, method) if part)


@functools.lru_cache(maxsize=None)
def _kept_option_modules():
    """``{kept option: the modules defining its owner}``."""
    owners = {}
    for module, class_name, method in _option_targets():
        owners.setdefault(_owner(class_name, method), set()).add(module)
    return {kept: owners.get(kept.rsplit(".", 1)[0], set()) for kept in KEPT_OPTIONS}


#: Options nothing outside the tests sets, each with its reason, as
#: ``"Class.option"``, ``"Class.method.option"`` or ``"function.option"``.
#: An option is an init field or a parameter with a default: a value a
#: caller may leave out.  Compared for equality, module by module (and a
#: kept option's owner must still be defined), so the list can only shrink.
KEPT_OPTIONS = {
    "PathQueryFrontend.capacity": (
        "a resource bound on foreign input: tests shrink the LRU bound to "
        "reach eviction, which the default never reaches on a test-sized "
        "topology"
    ),
    "RestrictedPythonAlgorithm.step_budget": (
        "a resource bound on a foreign payload: tests shrink it to reach "
        "SandboxResourceError"
    ),
    "RestrictedPythonAlgorithm.time_budget_ms": (
        "a resource bound on a foreign payload: tests shrink it to reach "
        "SandboxResourceError"
    ),
    "MeteredEvaluator.step_budget": (
        "a resource bound on a foreign payload: tests shrink it to reach "
        "SandboxResourceError"
    ),
    "BeaconBuilder.originate.validity_ms": (
        "a resource bound on foreign input: a beacon's validity bounds how "
        "long a receiver keeps it, and tests shrink it to reach expiry "
        "inside a test-sized run"
    ),
    "VerifiedPrefixCache.max_entries": (
        "a resource bound on foreign input: tests shrink the cache bound to "
        "reach eviction, which the default never reaches on a test-sized "
        "topology"
    ),
    "RevocationState.dedup_window_ms": (
        "a resource bound on foreign input: the window bounds how many "
        "received revocation keys an AS remembers, and tests shrink it to "
        "reach pruning"
    ),
    "ScenarioConfig.legacy_ases": (
        "a value a pinned digest's scenario sets: MIXED_DIGEST and "
        "GENERATED_MIXED_DIGESTS run legacy SCION ASes beside IREC ASes"
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
    """``{name: (position after self or cls, has a default)}`` of ``function``."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
    parameters = {
        arg.arg: (index - bound, index >= first_default) for index, arg in enumerate(positional)
    }
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parameters[arg.arg] = (None, default is not None)
    parameters.pop("self", None)
    return parameters


def _init_field(node):
    """``(name, has a default)`` if a class-body statement declares an init field."""
    if not (
        isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and "ClassVar" not in ast.unparse(node.annotation)
    ):
        return None
    value = node.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("field", "_slot"):
        keywords = {keyword.arg: keyword.value for keyword in value.keywords}
        init = keywords.get("init")
        if value.func.id == "_slot" or (isinstance(init, ast.Constant) and init.value is False):
            return None
        return node.target.id, "default" in keywords or "default_factory" in keywords
    return node.target.id, value is not None


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


def _is_classmethod(function) -> bool:
    return any(getattr(decorator, "id", None) == "classmethod" for decorator in function.decorator_list)


class _Setters(ast.NodeVisitor):
    """Every call argument and attribute store of the given trees."""

    def __init__(self, trees):
        #: callee name -> [(keyword or position, value, enclosing function, class)]
        self.arguments = {}
        #: attribute name -> [(receiver, enclosing function, class, module)]
        self.stores = {}
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
        if callee == "cls" and self._function is not None and _is_classmethod(self._function):
            callee = self._class  # ``cls(...)`` inside a classmethod builds its class
        context = (self._function, self._class)
        arguments = self.arguments.setdefault(callee, [])
        for keyword in node.keywords:
            if keyword.arg is not None:
                arguments.append((keyword.arg, keyword.value, *context))
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            arguments.append((position, arg, *context))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        # ``x.count += 1`` updates a value; it does not choose one.
        self.generic_visit(node.target)
        self.visit(node.value)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            self.stores.setdefault(node.attr, []).append(
                (node.value, self._function, self._class, self._module)
            )
        self.generic_visit(node)


class _OptionScan:
    """Decides whether code outside the tests sets an option.

    An option is set by a keyword (or a positional argument) of a call to
    its constructor (``cls(...)`` in a classmethod included), to a
    subclass's, to ``dataclasses.replace``, to its method or to its
    function, or — for a class's option — by an attribute store on an
    object of that class or a subclass.  The receiver's class is read
    locally: ``self``, a parameter's or variable's annotation (a module
    variable's too), a constructor call it was assigned, a call of an item
    of a container whose annotation names the class, or an attribute of
    ``self`` that the enclosing class annotates or assigns; a receiver
    whose class cannot be read sets nothing.  Writes from the option's own
    class do not count unless they pass on a parameter of the enclosing
    method: a class filling in its own field is not a caller choosing a
    value, a factory handing on its caller's argument is.  A value that
    forwards — reads a defaulted parameter of the calling method or
    function, a field of the calling dataclass, an option of another
    object whose class the scan can read, or a local assigned only such
    values — sets the option only if everything it forwards is set.
    """

    def __init__(self, sources=None):
        if sources is None:
            sources = {
                path: path.read_text(encoding="utf-8") for path in _non_test_sources()
            }
        trees = [ast.parse(text) for text in sources.values()]
        #: Every class and module-level function, by name; ``src/`` comes
        #: first, so it wins a clash.
        self.classes = {}
        self.functions = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, node)
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions.setdefault(node.name, node)
        self.setters = _Setters(trees)
        self._decided = {}

    def options(self, class_name, method=None):
        """``{option: position or None}`` of a class, one of its methods or,
        with ``class_name`` None, a module-level function."""
        if class_name is None:
            function = self.functions[method]
            cls = None
        else:
            cls = self.classes[class_name]
            function = _method(cls, method or "__init__")
            if method is not None:
                assert function is not None, f"{class_name}.{method} not found"
        options = {}
        if cls is not None and method is None and _is_dataclass(cls):
            options.update(
                (name, position)
                for position, (name, defaulted) in enumerate(self._init_fields(class_name))
                if defaulted
            )
        if function is not None:
            options.update(
                (name, position)
                for name, (position, defaulted) in _parameters(function).items()
                if defaulted
            )
        return {name: at for name, at in options.items() if not name.startswith("_")}

    def _init_fields(self, class_name):
        """``[(name, has a default)]`` of a dataclass's ``__init__``, in order:
        the fields of its dataclass bases first, a redeclared one in place."""
        cls = self.classes[class_name]
        fields = []
        for base in cls.bases:
            name = getattr(base, "id", getattr(base, "attr", None))
            if name in self.classes and _is_dataclass(self.classes[name]):
                fields += self._init_fields(name)
        for node in cls.body:
            declared = _init_field(node)
            if declared is None:
                continue
            names = [name for name, _ in fields]
            if declared[0] in names:
                fields[names.index(declared[0])] = declared
            else:
                fields.append(declared)
        return fields

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

    def lineage(self, class_name):
        """``class_name``, every class it inherits from and every heir."""
        lineage = self.family(class_name)
        pending = [class_name]
        while pending:
            cls = self.classes.get(pending.pop())
            for base in cls.bases if cls is not None else ():
                name = getattr(base, "id", getattr(base, "attr", None))
                if name in self.classes and name not in lineage:
                    lineage.add(name)
                    pending.append(name)
        return lineage

    def _callees(self, class_name, method):
        if class_name is None or method not in (None, "__init__"):
            return {method}
        callees = self.family(class_name)
        if _is_dataclass(self.classes[class_name]):
            callees.add("replace")
        return callees

    def types(self, expr, function, class_name, module, seen=frozenset()):
        """The classes ``expr`` may hold, as far as a local reading tells."""
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Subscript):
                # An item of an annotated container: what the annotation names.
                return self.types(func.value, function, class_name, module, seen)
            callee = getattr(func, "id", None)
            if callee == "cls" and function is not None and _is_classmethod(function):
                callee = class_name
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
                if not bindings and module is not None:
                    # A name the function does not bind is the module's.
                    bindings += [(annotation, None) for annotation, _ in _assignments(module, target)]
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
        own_class = class_name is not None and method in (None, "__init__")
        if own_class:
            family = self.family(class_name)
            for receiver, function, cls, module in self.setters.stores.get(name, ()):
                if cls != class_name and self.types(receiver, function, cls, module) & family:
                    return True
        position = self.options(class_name, None if own_class else method).get(name)
        for callee in self._callees(class_name, method):
            for argument, value, function, cls in self.setters.arguments.get(callee, ()):
                if argument not in (name, position) or (callee == "replace" and argument != name):
                    continue  # ``replace``'s one positional argument is the object
                if own_class and cls == class_name and not _reads_a_parameter(value, function):
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
        owner = class_name if in_method else None
        followable = in_method or self.functions.get(function.name) is function
        parameters = _parameters(function)
        fields = set(self.options(class_name)) if in_method and _is_dataclass(cls) else set()
        for node in ast.walk(value):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                parameter = parameters.get(node.id)
                if parameter is not None:
                    # A nested function's parameter is not followed.
                    if parameter[1] and followable and not self.is_set(
                        owner, function.name, node.id
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
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id != "self"
                and self._reads_unset_option(node, function, class_name)
            ):
                return False
        return True

    def _reads_unset_option(self, node, function, class_name):
        """Whether ``node``, ``x.<attr>``, reads an unset option of a class ``x`` may hold.

        The option may be declared by that class, a subclass or a base
        class, so all three are asked.
        """
        for held in self.types(node.value, function, class_name, None):
            for owner in self.lineage(held):
                if node.attr in self.options(owner) and not self.is_set(owner, None, node.attr):
                    return True
        return False

    def unset(self):
        """``{module: options}`` of every option of ``_option_targets()``
        that nothing sets, as ``"Class.option"``, ``"Class.method.option"``
        or ``"function.option"``."""
        unset = {}
        for module, class_name, method in _option_targets():
            for name in self.options(class_name, method):
                if not self.is_set(class_name, method, name):
                    unset.setdefault(module, set()).add(f"{_owner(class_name, method)}.{name}")
        return unset


def _reads_a_parameter(value, function) -> bool:
    """Whether ``value`` reads a parameter of ``function`` other than ``self`` / ``cls``."""
    if function is None:
        return False
    parameters = set(_parameters(function)) - {"cls"}
    return any(
        isinstance(node, ast.Name) and node.id in parameters for node in ast.walk(value)
    )


@functools.lru_cache(maxsize=None)
def _option_scan():
    return _OptionScan()


@functools.lru_cache(maxsize=None)
def _unset_options():
    return _option_scan().unset()


def test_the_option_rule_sees_the_tree():
    scan = _option_scan()
    assert "ScenarioConfig" in scan.classes and "generate_topology" in scan.functions
    assert scan.is_set("ScenarioConfig", None, "periods")
    assert not scan.is_set("ScenarioConfig", None, "legacy_ases")


def test_every_kept_option_belongs_to_a_scanned_target():
    """A kept option whose owner is gone would belong to no module's test."""
    orphaned = {kept for kept, modules in _kept_option_modules().items() if not modules}
    assert not orphaned, (
        f"kept but no class, method or function declares them (drop from "
        f"KEPT_OPTIONS): {sorted(orphaned)}"
    )


@pytest.mark.parametrize("module", _defining_modules())
def test_every_option_has_a_setter_outside_the_tests(module):
    unset = _unset_options().get(module, set())
    kept = {kept for kept, modules in _kept_option_modules().items() if module in modules}
    assert unset == kept, (
        f"option(s) only tests set: {sorted(unset - kept)} — delete them or make "
        f"them constants; kept but now set or gone (drop from KEPT_OPTIONS): "
        f"{sorted(kept - unset)}"
    )


#: A small tree for the option rule's own tests: an options class with a
#: factory classmethod, one subclass, an unrelated class with a colliding
#: attribute name and a planner whose method forwards a defaulted
#: parameter.
RULE_TREE = '''
from dataclasses import dataclass

@dataclass
class Knobs:
    name: str = "knobs"
    budget: int = 1

    def __post_init__(self):
        self.budget = 2

    @classmethod
    def named(cls, label="knobs"):
        return cls(name=label)

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
        # Copying an object's option onto a fresh one chooses nothing.
        ("def fresh(knobs: Knobs):\n    return Knobs(budget=knobs.budget)", "budget", False),
        ("def fresh(knobs: 'Knobs'):\n    return Knobs(budget=knobs.budget + 1)", "budget", False),
        # ... also when the receiver's class inherits the option.
        ("def fresh(knobs: 'Tuned'):\n    return Knobs(budget=knobs.budget)", "budget", False),
        (
            "def fresh(knobs: Knobs):\n    return Knobs(budget=knobs.budget)\n"
            "def tune(knobs: Knobs):\n    knobs.budget = 3",
            "budget",
            True,
        ),
        ("Tuned(budget=3)", "budget", True),
        # A dataclass takes its fields positionally too, a base's first.
        ("Knobs('x')", "name", True),
        ("Knobs('x', 3)", "budget", True),
        ("Tuned('x', 3)", "budget", True),
        ("def copy(knobs: Knobs):\n    return replace(knobs)", "name", False),
        # ``cls(...)`` in a classmethod builds the class: what it hands on
        # is set when its caller sets it.
        ("Knobs.named()", "name", False),
        ("Knobs.named(label='x')", "name", True),
        ("Knobs.named('x')", "name", True),
        # A call of an annotated container's item holds what the
        # annotation names.
        (
            "FACTORIES: Dict[str, Callable[[], Knobs]] = {'k': Knobs}\n"
            "def pick(kind):\n    knobs = FACTORIES[kind]()\n    knobs.name = 'x'",
            "name",
            True,
        ),
        (
            "FACTORIES: Dict[str, Callable[[], Unrelated]] = {'u': Unrelated}\n"
            "def pick(kind):\n    other = FACTORIES[kind]()\n    other.name = 'x'",
            "name",
            False,
        ),
    ],
)
def test_the_option_rule_reads_receivers_and_forwarded_values(caller, option, is_set):
    scan = _OptionScan({"rule": RULE_TREE + "\n" + caller + "\n"})
    assert scan.is_set("Knobs", None, option) is is_set
