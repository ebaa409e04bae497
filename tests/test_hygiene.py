"""Static checks over the library sources and the tests (no linter is a
dependency)."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hcfam"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, counting names inside string
    annotations such as ``"hcmod.HCModuleFamily"`` as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                inner = ast.parse(const.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_string_annotations():
    src = "import a\nimport b\nimport c\ndef f(x: 'a.T') -> 'b.U': pass\n"
    assert unused_imports(src) == [(3, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_hcfam_names(source: str) -> list:
    """Underscore-prefixed names taken from hcfam: imported by name, or read
    as an attribute of a module or name imported from hcfam."""
    tree = ast.parse(source)
    found, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hcfam")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name for a in node.names if a.name.startswith("hcfam"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_name_detector():
    src = "from .hcmod import _a, b\nfrom . import hcmod\nimport os\nhcmod._c\nos._exit\n"
    assert private_hcfam_names(src) == ["_a", "hcmod._c"]


def test_cli_uses_only_public_library_names():
    assert private_hcfam_names((SRC / "cli.py").read_text()) == []


MATH_ALLOWED = {"gcd", "isqrt"}


def float_uses(source: str) -> list:
    """Floats in exact code: float or complex literals, calls of ``float``,
    and names from ``math`` other than ``gcd`` and ``isqrt`` (imported by
    name, or read as an attribute of an imported ``math``)."""
    tree = ast.parse(source)
    found, math_names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_names.update(a.asname or a.name for a in node.names if a.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in MATH_ALLOWED]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float()"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in MATH_ALLOWED
        ):
            found.append((node.lineno, f"math.{node.attr}"))
    return sorted(found)


def test_float_detector():
    src = (
        "import math\nimport math as m\nfrom math import gcd, inf\n"
        "a = 0.5\nb = 2j\nc = float('1')\nd = math.inf\ne = m.sqrt(4)\n"
        "f = math.gcd(4, 6) + m.isqrt(9) + gcd(1, 2) + 1 // 2\n"
    )
    assert float_uses(src) == [
        (3, "math.inf"), (4, "0.5"), (5, "2j"), (6, "float()"), (7, "math.inf"), (8, "math.sqrt"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text()) == []


def fraction_calls(source: str) -> list:
    """Lines that call ``Fraction``: by name (also under an ``as`` alias) or as
    an attribute, such as ``fractions.Fraction(...)``."""
    tree = ast.parse(source)
    names = {"Fraction"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            names.update(a.asname or a.name for a in node.names if a.name == "Fraction")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id in names) or (isinstance(f, ast.Attribute) and f.attr == "Fraction"):
                found.append(node.lineno)
    return sorted(found)


def test_fraction_call_detector():
    src = (
        "import fractions\nfrom fractions import Fraction, Fraction as F\n"
        "a = Fraction(1)\nb = fractions.Fraction(2)\nc = F(3, 4)\n"
        "def f(x: Fraction) -> 'Fraction': return isinstance(x, Fraction) and x.re\n"
    )
    assert fraction_calls(src) == [3, 4, 5]


def test_real_forms_stay_on_the_integer_core():
    """``grassfam`` computes real forms over Q(i); the Killing matrix becomes
    rational only through the ``re`` of its entries."""
    assert fraction_calls((SRC / "grassfam.py").read_text()) == []


TRIPLE_SLOTS = {"_a", "_b", "_d"}


def triple_slot_reads(source: str) -> list:
    """Lines that touch a Gaussian rational's integer triple: any attribute
    ``._a``, ``._b`` or ``._d``, read or assigned."""
    tree = ast.parse(source)
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in TRIPLE_SLOTS
    )


def test_triple_slot_detector():
    src = "x = g._a\ny = f(g)._d + g.a\ng._b = 1\nh = g._ab\n"
    assert triple_slot_reads(src) == [(1, "_a"), (2, "_d"), (3, "_b")]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "scalars.py"), ids=lambda p: p.name)
def test_triple_slots_stay_in_scalars(path):
    """Only ``scalars`` reads the triples, so kernels on them live there."""
    assert triple_slot_reads(path.read_text()) == []


def setattr_overrides(source: str) -> list:
    """Lines that define ``__setattr__`` or call ``object.__setattr__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__setattr__":
            found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            found.append(node.lineno)
    return sorted(found)


def test_setattr_detector():
    src = (
        "class A:\n    def __setattr__(self, n, v):\n        raise AttributeError\n"
        "object.__setattr__(a, 'x', 1)\nsetattr(a, 'x', 1)\na.x = 1\nsuper().__setattr__('x', 1)\n"
    )
    assert setattr_overrides(src) == [2, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_immutability_policy(path):
    """Library values are never changed after construction by convention,
    the convention ``GaussianRational`` keeps: constructors assign the slots
    once and no class guards them with ``__setattr__``."""
    assert setattr_overrides(path.read_text()) == []


def unguarded_module_arguments(source: str) -> list:
    """(function, parameter) for each public module-level function other than
    ``validate`` whose parameter annotated ``HCModuleFamily`` the body never
    passes to ``_require_valid``: the readers trust what validate proves."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name == "validate":
            continue
        guarded = {
            call.args[0].id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_require_valid"
            and call.args and isinstance(call.args[0], ast.Name)
        }
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        found += [(node.name, p.arg) for p in params
                  if p.annotation is not None and ast.unparse(p.annotation).strip("'\"").split(".")[-1] == "HCModuleFamily"
                  and p.arg not in guarded]
    return found


def test_unguarded_module_argument_detector():
    src = (
        "def validate(module: HCModuleFamily): pass\n"
        "def good(m1: HCModuleFamily, m2: 'hcmod.HCModuleFamily', w: int):\n"
        "    _require_valid(m1, w)\n    _require_valid(m2, w)\n"
        "def half(m1: HCModuleFamily, m2: HCModuleFamily):\n    _require_valid(m1)\n"
        "def other(m: HCModuleFamily, n: int):\n    validate(m)\n    _require_valid(n)\n"
        "def _private(m: HCModuleFamily): pass\n"
        "class C:\n    def method(self, m: HCModuleFamily): pass\n"
    )
    assert unguarded_module_arguments(src) == [("half", "m2"), ("other", "m")]


def test_public_module_queries_validate_every_module():
    """``iso_check``, ``reducible_locus`` and ``swap_transitions`` read only
    what validation proves (4 A_n B_n = q_n != 0 and the degree bounds)."""
    source = (SRC / "hcmod.py").read_text()
    assert unguarded_module_arguments(source) == []
    assert unguarded_module_arguments(source.replace("_require_valid(m2)", "pass")) == [("iso_check", "m2")]


#: Unreferenced on purpose: the console entry point.
UNREFERENCED_ALLOWED = {"cli.main"}


def _inherited_names(cls: ast.ClassDef) -> set:
    """Attribute names of the class's bases that resolve outside the sources
    (a builtin, or a dotted name of an importable module such as
    ``argparse.ArgumentParser``): a method of that name is an override that
    the base class calls."""
    names = set()
    for base in cls.bases:
        head, *rest = ast.unparse(base).split(".")
        try:
            obj = importlib.import_module(head) if rest else getattr(builtins, head)
            for part in rest:
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            continue
        names.update(dir(obj))
    return names


def _inside(node, where, line, module) -> bool:
    return where == module and node.lineno <= line <= node.end_lineno


def unreferenced_definitions(sources: dict) -> list:
    """``module.name`` for each function, method and class defined in the
    sources ({module: text}) whose name no other place in them reads, as a
    name or as an attribute: a use inside its own definition does not count.
    A static method counts as read only as ``Owner.name``, or as
    ``self.name`` or ``cls.name`` inside its class ``Owner``, so a method of
    the same name on another class does not hide it.  Dunders and overrides
    of a base class from outside the sources are exempt."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [
        (module, node.lineno, node.id, None) if isinstance(node, ast.Name)
        else (module, node.lineno, node.attr, node.value.id if isinstance(node.value, ast.Name) else None)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for module, tree in trees.items():
        inherited, owners = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    inherited[item] = _inherited_names(node)
                    if any(ast.unparse(d) == "staticmethod" for d in getattr(item, "decorator_list", ())):
                        owners[item] = node
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name, cls = node.name, owners.get(node)
            if name.startswith("__") and name.endswith("__") or name in inherited.get(node, ()):
                continue
            if not any(
                read == name and not _inside(node, where, line, module)
                and (cls is None or on == cls.name or on in ("self", "cls") and _inside(cls, where, line, module))
                for where, line, read, on in reads
            ):
                found.append(f"{module}.{name}")
    return sorted(found)


def test_unreferenced_definition_detector():
    a = (
        "import argparse\n"
        "def used(): return 1\n"
        "def unused(): return used()\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"
        "    def helper(self): return self.helper()\n"
        "    def __repr__(self): return ''\n"
        "class Plain(Exception):\n"
        "    def with_traceback(self, tb): pass\n"
        "    def extra(self): pass\n"
        "class Maker:\n"
        "    @staticmethod\n    def make(): return Maker.build()\n"
        "    @staticmethod\n    def build(): return 1\n"
        "    @staticmethod\n    def inner(): return 2\n"
        "    @staticmethod\n    def shadowed(): return 3\n"
        "    @staticmethod\n    def elsewhere(): return 4\n"
        "    def method(self): return self.inner()\n"
        "class Other:\n"
        "    @staticmethod\n    def shadowed(): return 5\n"
        "    def outer(self): return self.elsewhere()\n"
    )
    # An import alone reads nothing.  Other.shadowed reads only Other's, and
    # self.elsewhere inside Other does not read Maker's.
    b = "from .a import Parser, Plain, Maker, Other\nParser().extra\nMaker.make\nMaker().method\nOther.shadowed\nOther().outer\n"
    assert unreferenced_definitions({"a": a, "b": b}) == [
        "a.Plain", "a.elsewhere", "a.helper", "a.recursive", "a.shadowed", "a.unused"]


def test_every_definition_is_used_in_the_library():
    """Code that only the tests call is removed with its tests."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name in unreferenced_definitions(sources) if name not in UNREFERENCED_ALLOWED] == []
