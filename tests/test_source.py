import ast
import random
from pathlib import Path

import pytest

import ddlkit
from ddlkit import henkin, hol, model, syntax
from helpers import abstract_atom

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ddlkit"
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml allows Python 3.10: no syntax from later versions
    ast.parse(path.read_text(encoding="utf-8"), str(path),
              feature_version=(3, 10))


# every field of Const, Bound, Free, App and Abs
TERM_FIELDS = frozenset({"name", "ty", "index", "fn", "arg", "var_ty",
                         "body", "hint"})


def term_field_writes(source: str) -> list[int]:
    """Lines that assign to or delete an attribute named like a hol term
    field, directly or through setattr."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in TERM_FIELDS
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in TERM_FIELDS
              and (isinstance(node.func, ast.Name)
                   and node.func.id == "setattr"
                   or isinstance(node.func, ast.Attribute)
                   and node.func.attr == "__setattr__")):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_assigns_to_a_term_field(path):
    # hol terms are slotted dataclasses, not frozen ones: this is what
    # keeps them immutable, and so keeps their hashes valid
    assert term_field_writes(path.read_text(encoding="utf-8")) == []


def test_term_field_writes_are_found():
    source = ("t.fn = a\n"
              "t.body, x = b, 1\n"
              "t.index += 1\n"
              "del t.hint\n"
              "setattr(t, 'arg', c)\n"
              "object.__setattr__(t, 'var_ty', d)\n"
              "t.name = e\n"
              "t.names = f\n"
              "x = t.fn\n")
    assert term_field_writes(source) == [1, 2, 3, 4, 5, 6, 7]


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a public name that neither another module of the package nor the
    # benchmark reads is test support, and belongs under tests/
    # (extract_model's only reader outside the tests is the benchmark)
    readers = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    readers += sorted(PERFBENCH.glob("*.py"))
    used = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(ddlkit.__all__) - used) == []


def except_clauses_naming(source: str, name: str) -> list[str]:
    """The innermost function around each `except` clause that names the
    exception `name`, alone or in a tuple ("" at module level)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type and any(
                    isinstance(n, ast.Name) and n.id == name
                    or isinstance(n, ast.Attribute) and n.attr == name
                    for n in ast.walk(child.type)):
                found.append(where)
            visit(child, where)
    visit(ast.parse(source), "")
    return found


def test_a_failed_lift_is_caught_only_in_compile_term():
    # _compile_term compiles the whole term again, lifting no binder,
    # when a lift fails; a retry per binder would need a memo of the
    # binders inside it to keep the compile linear
    found = [f"{path.name}:{where}" for path in sorted(SRC.rglob("*.py"))
             for where in except_clauses_naming(
                 path.read_text(encoding="utf-8"), "_Unlifted")]
    assert found == ["henkin.py:_compile_term"]


def test_except_clauses_naming_an_exception_are_found():
    source = ("try:\n    x = 1\nexcept _Unlifted:\n    pass\n"
              "def f():\n"
              "    try:\n        x = 1\n"
              "    except (KeyError, m._Unlifted):\n        pass\n"
              "    def g():\n"
              "        try:\n            x = 1\n"
              "        except _Unlifted as e:\n            pass\n"
              "    try:\n        x = 1\n    except KeyError:\n        pass\n"
              "    x = _Unlifted\n")
    assert except_clauses_naming(source, "_Unlifted") == ["", "f", "g"]


def reads_naming(source: str, name: str) -> list[str]:
    """The innermost function around each read of `name`, as a name or
    an attribute ("" at module level)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute)
                    and child.attr == name) \
                    and isinstance(child.ctx, ast.Load):
                found.append(where)
            visit(child, where)
    visit(ast.parse(source), "")
    return found


def test_witnesses_are_searched_for_only_in_validate():
    # validate accepts a valid ob table by its closed form and searches
    # only a table it refuses, so there is one witness search
    found = [f"{path.name}:{where}" for path in sorted(SRC.rglob("*.py"))
             for where in reads_naming(path.read_text(encoding="utf-8"),
                                       "_ob_violations")]
    assert found == ["model.py:validate"]


def test_only_emission_and_the_axioms_normalize():
    # the embedded evaluation route runs `vld(embed(f))` as built; the
    # THF text, the printed term and the axioms are normal forms
    found = [f"{path.name}:{where}" for path in sorted(SRC.rglob("*.py"))
             for where in reads_naming(path.read_text(encoding="utf-8"),
                                       "beta_eta_normalize")]
    assert found == ["cli.py:_cmd_embed", "export.py:to_thf_problem",
                     "hol.py:axioms"]


def test_each_term_is_type_checked_once(monkeypatch):
    # `hol.type_of` is the one well-formedness check of a term: henkin
    # runs it once per `eval_term` call and per compiled axiom, in one
    # function that turns its error into an EvalError, and the walk and
    # `_compile` take the types as given
    source = (SRC / "henkin.py").read_text(encoding="utf-8")
    assert reads_naming(source, "type_of") == ["_well_typed"]
    found = [f"{path.name}:{where}" for path in sorted(SRC.rglob("*.py"))
             for where in except_clauses_naming(
                 path.read_text(encoding="utf-8"), "HolTypeError")]
    assert found == ["henkin.py:_well_typed"]
    checked = []
    monkeypatch.setattr(henkin, "type_of", lambda t, *binders,
                        run=henkin.type_of: checked.append(t)
                        or run(t, *binders))
    monkeypatch.setattr(henkin, "_AXIOMS", {})
    h = henkin.build_henkin(model.random_model(2, ("p",), 34, 0.3))
    t = hol.embed(syntax.parse("O(p / ~p) | [a]p"))
    # a walked term, one that compiles, and one that walks and compiles
    terms = [hol.vld(t), hol.neg(hol.vld(t)),
             hol.App(hol.VLD, hol.Abs(hol.I, hol.App(t, hol.Bound(0))))]
    for term in terms:
        henkin.eval_term(h, term)
    assert henkin.check_axioms(h) is None
    assert henkin.check_axioms(h) is None
    assert checked == terms + [term for _, term in hol.axioms()]


def test_the_unit_is_read_in_one_function():
    # `eval_term` hands the unit of its world count to the walk, the one
    # route to the compiled definitions: `_compile` compiles every λ
    # where it is applied
    source = (SRC / "henkin.py").read_text(encoding="utf-8")
    assert reads_naming(source, "_unit") == ["eval_term"]


def test_reads_naming_a_name_are_found():
    source = ("x = f(1)\n"
              "def g():\n"
              "    return list(m.f(2))\n"
              "def h():\n"
              "    def f(): pass\n"
              "    m.f = 3\n"
              "    y = [f for _ in ()]\n")
    assert reads_naming(source, "f") == ["", "g", "h"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The `_private` names that a module of `sources` defines at module
    level and that no top-level statement of any module but the
    definition itself reads, as "module:name"."""
    defined, reads = {}, {}
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            where = (module, i)
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        and node is stmt:
                    defined[module, node.name] = where
                elif isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        reads.setdefault(node.id, set()).add(where)
                    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        defined[module, node.id] = where
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, set()).add(where)
    return sorted(f"{module}:{name}"
                  for (module, name), where in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and not reads.get(name, set()) - {where})


def test_every_private_name_has_a_reader_in_the_package():
    # a helper that no code of the package reads any more is dead: it
    # must go, or move under tests/ if only a test still uses it
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_names_are_found():
    sources = {"a": ("_LIMIT = 3\n"
                     "_used, _spare = 1, 2\n"
                     "def _loop(x):\n"
                     "    return _loop(x - 1) if x else _used\n"
                     "class _Box:\n"
                     "    _field = 0\n"
                     "def public():\n"
                     "    return b._helper()\n"),
               "b": ("def _helper():\n"
                     "    return _LIMIT\n"
                     "__all__ = []\n")}
    assert unread_private_names(sources) == ["a:_Box", "a:_loop", "a:_spare"]


def unbounded_caches(source: str) -> list[int]:
    """Lines that make a functools cache other than an `lru_cache`
    called with a number as its maxsize: `cache`, a bare `lru_cache`,
    or one with maxsize None or an expression.  A bare name counts only
    if it is imported from functools."""
    def name(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name) and node.id in imported:
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == "functools":
            return node.attr
        return None
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "functools" for alias in node.names}
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            sizes = node.args[:1] + [k.value for k in node.keywords
                                     if k.arg == "maxsize"]
            if any(isinstance(size, ast.Constant) and type(size.value) is int
                   for size in sizes):
                bounded.add(node.func)
    return sorted(node.lineno for node in ast.walk(tree)
                  if name(node) == "cache"
                  or name(node) == "lru_cache" and node not in bounded)


def test_every_cache_of_the_evaluator_is_bounded():
    # henkin's caches hold lane masks of up to 8 KB each, and a cache of
    # computed values with no bound grows with every model run
    assert unbounded_caches((SRC / "henkin.py").read_text(
        encoding="utf-8")) == []


def unit_heads() -> dict[int, tuple[str, int]]:
    """Each body a unit of compiled definitions may hold, by its id: a
    closed definition of `hol`, named, with k of its λs applied."""
    heads = {}
    for name, term in [(kind.__name__, term) for kind, term
                       in hol._DEFINITIONS.items()] + [("VLD", hol.VLD)]:
        k = 0
        while type(term) is hol.Abs:
            term, k = term.body, k + 1
            heads[id(term)] = name, k
    return heads


def test_the_unit_of_compiled_definitions_stays_bounded():
    # the unit is a dict, which `unbounded_caches` does not see: it holds
    # one body per definition and argument count, 19 per world count, and
    # 17 from embedded terms, whatever the formulas' depth
    heads = unit_heads()
    assert len(heads) == 19
    henkin._unit.cache_clear()
    rng = random.Random(32)
    shallow = ["~p", "p | q", "[]p", "[a]p", "[p]p", "O(p/q)", "Oa p",
               "Op p"]
    deep = [op * 40 + "p" for op in ("[]", "[a]", "Oa ")]
    deep.append("O(" * 40 + "p" + " / q)" * 40)
    seen = {}
    for n in (1, 2, 3):
        h = henkin.build_henkin(model.random_model(n, ("p", "q"),
                                                   rng.getrandbits(63), 0.3))
        unit = henkin._unit(n)
        for texts in (shallow, deep):
            for text in texts:
                t = hol.embed(syntax.parse(text))
                henkin.eval_term(h, hol.vld(t))
                henkin.eval_term(h, hol.App(t, hol.Free("S", hol.I)),
                                 {"S": n - 1})
            held = sorted(heads[key] for key in unit.bodies)
            assert len(held) == len(set(held)) == 17, held
            seen[n, texts is deep] = (held, len(unit.memos), unit.consts)
        assert seen[n, True] == seen[n, False]
        assert unit.consts.keys() == {"av", "pv", "ob"}
        # a definition applied under a binder compiles with its term
        before = dict(unit.bodies), list(unit.memos), dict(unit.consts)
        t = hol.embed(syntax.parse("[](Oa p | [a]q) | O(p / ~p)"))
        henkin.eval_term(h, hol.forall(
            hol.TAU, hol.App(hol.VLD, abstract_atom(t, "p"))))
        assert henkin._unit(n) is unit
        assert (dict(unit.bodies), list(unit.memos),
                dict(unit.consts)) == before


def cache_owner(source: str, line: int) -> str:
    """The function decorated at `line`, or the name assigned there."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and any(
                d.lineno == line for d in node.decorator_list):
            return node.name
        if isinstance(node, ast.Assign) and node.lineno == line:
            return node.targets[0].id
    return f"line {line}"


# The package's caches with no numeric maxsize, each with its finite key
# set.  A new one fails the test below until it is bounded or listed
# here with the reason its keys are few.
UNBOUNDED_CACHES = {
    "search._orbit_masks": "orbit chunks, which stop at 3 worlds",
    "search._representatives": "orbit pairs, which stop at 3 worlds",
    "model.ideal_ob": "(n, S) for n up to MAX_WORLDS",
    "hol.axioms": "no arguments",
    "export._axiom_entries": "no arguments",
    "export.thf_type": "the types of the signature and its terms",
}


def test_every_unbounded_cache_of_the_package_is_listed():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        found += [f"{path.stem}.{cache_owner(source, line)}"
                  for line in unbounded_caches(source)]
    assert sorted(found) == sorted(UNBOUNDED_CACHES)


def test_unbounded_caches_are_found():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "a = functools.lru_cache(maxsize=64)(f)\n"
              "@functools.lru_cache(32)\n"
              "def g(): pass\n"
              "@lru_cache(maxsize=8)\n"
              "def h(): pass\n"
              "@functools.cache\n"
              "def k(): pass\n"
              "b = functools.lru_cache(maxsize=None)(f)\n"
              "@functools.lru_cache\n"
              "def m(): pass\n"
              "@lru_cache()\n"
              "def r(): pass\n"
              "c = functools.lru_cache(maxsize=SIZE)(f)\n"
              "d = functools.cache(f)\n"
              "e = cache(f)\n")
    assert unbounded_caches(source) == [8, 10, 11, 13, 15, 16, 17]
    assert [cache_owner(source, line) for line in unbounded_caches(source)
            ] == ["k", "b", "m", "r", "c", "d", "e"]
    # a variable named cache is no functools cache
    assert unbounded_caches("import functools\n"
                            "cache = {}\n"
                            "cache.get(1)\n") == []


def package_imports(source: str, modules: set[str]) -> set[str]:
    """The modules of the ddlkit package that `source` imports, anywhere
    in it: `from .m import x`, `from . import m`, `import ddlkit.m` and
    `from ddlkit.m import x` import m, for m in `modules`.  Importing
    the package itself, or a name from it that is no module, imports
    `__init__`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"ddlkit.{module}".rstrip(".")
            paths = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if parts[0] == "ddlkit":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules
                          else "__init__")
    return found


# The direct route evaluates formulas over truth sets; the embedded
# route evaluates their embedded terms in standard interpretations.
# They share only the model format, so that neither can take a shortcut
# through the other and hide a disagreement; only the modules that
# compare or expose the two import both.
DIRECT, EMBEDDED = {"checker", "search"}, {"hol", "henkin", "export"}
FORMAT, BOTH = {"syntax", "model"}, {"faithful", "cli", "__init__"}


def test_the_two_routes_import_only_the_model_format():
    paths = sorted(SRC.rglob("*.py"))
    modules = {p.stem for p in paths}
    groups = [DIRECT, EMBEDDED, FORMAT, BOTH]
    assert sorted(m for m in modules
                  if sum(m in group for group in groups) != 1) == []
    imports = {p.stem: package_imports(p.read_text(encoding="utf-8"),
                                       modules) for p in paths}
    barred = {**dict.fromkeys(DIRECT, EMBEDDED | BOTH),
              **dict.fromkeys(EMBEDDED, DIRECT | BOTH),
              **dict.fromkeys(FORMAT, DIRECT | EMBEDDED | BOTH),
              **dict.fromkeys(BOTH, set())}
    # so only the modules in BOTH may import both routes
    assert sorted(f"{m} imports {dep}" for m, deps in imports.items()
                  for dep in deps & barred[m]) == []


def test_module_imports_are_found():
    modules = {"checker", "search", "hol", "henkin", "export"}
    found = {
        "from .checker import x\n": {"checker"},
        "from . import checker, hol\n": {"checker", "hol"},
        "import ddlkit.search as s\n": {"search"},
        "from ddlkit.checker import x\n": {"checker"},
        "def f():\n    from .henkin import eval_term\n": {"henkin"},
        ("from typing import TYPE_CHECKING\n"
         "if TYPE_CHECKING:\n    from .export import ThfProblem\n"):
            {"export"},
        "import ddlkit\n": {"__init__"},
        "from . import parse\n": {"__init__"},
        ("from __future__ import annotations\n"
         "import random, os.path\n"
         "from dataclasses import dataclass\n"
         "import ddlkitx.checker\n"): set(),
    }
    assert {source: package_imports(source, modules)
            for source in found} == found
