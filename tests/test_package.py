"""The package-level names and the README's library example."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import antibrackets

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_runs_verbatim():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def test_package_exports_exactly_its_public_names():
    assert sorted(antibrackets.__all__) == [
        "Signature", "canonical_tuples", "cli", "first_mismatch",
        "inversion_check", "nr_bracket", "ops_equal", "phi_hierarchy",
        "random_endo",
    ]
    namespace = {}
    exec("from antibrackets import *", namespace)
    assert set(antibrackets.__all__) <= set(namespace)


def test_every_module_all_name_resolves():
    for info in pkgutil.iter_modules(antibrackets.__path__):
        module = importlib.import_module(f"antibrackets.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def _unused_imports(path):
    """Names ``path`` imports but never reads, lists in ``__all__`` or marks
    ``# noqa: F401`` on the import line."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def _modules_with_unused_imports(directory):
    modules = sorted(directory.glob("*.py"))
    assert len(modules) > 5
    unused = {path.name: _unused_imports(path) for path in modules}
    return {name: found for name, found in unused.items() if found}


def test_src_modules_import_no_unused_name():
    assert _modules_with_unused_imports(Path(antibrackets.__file__).parent) == {}


def test_test_modules_import_no_unused_name():
    assert _modules_with_unused_imports(Path(__file__).parent) == {}


def _functions_calling(path, name):
    """``module:qualified name`` of each function of ``path`` whose own body,
    outside the functions nested in it, calls ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.add(f"{path.name}:{scope}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_the_insertion_loop_is_written_once():
    # every insertion product bisects into a complement in one kernel
    src = Path(antibrackets.__file__).parent
    callers = set().union(*(_functions_calling(path, "bisect_left")
                            for path in sorted(src.glob("*.py"))))
    assert len(callers) == 1, callers


def test_multilinear_builds_mu_by_one_rule():
    # mu_n for n >= 1 is the one-letter recursion on either kind of
    # signature; the product table is read only as the insertion loop's
    # shortcut, never by an ordered product of a whole tuple
    path = Path(antibrackets.__file__).parent / "multilinear.py"
    assert _functions_calling(path, "mul_indices") == set()


def test_only_the_series_module_reads_the_exponential_form():
    # the kernel and the conversion into exponential form stay inside
    # series.py; the checks registry calls its checks on plain series
    src = Path(antibrackets.__file__).parent
    callers = set().union(*(_functions_calling(path, name)
                            for path in sorted(src.glob("*.py"))
                            for name in ("_kernel", "_exp_form")))
    assert callers and all(c.startswith("series.py:") for c in callers), callers


def test_multilinear_divides_values_in_one_function():
    # a combination's and an insertion node's values by its divisor and
    # mu_n's by n+1: one division, int where exact, that the fault matrix
    # mutates; the constructions hand every node int weights and make no
    # rational of their own
    src = Path(antibrackets.__file__).parent
    assert _functions_calling(src / "multilinear.py", "rat") == {
        "multilinear.py:_divided"}
    assert _functions_calling(src / "brackets.py", "rat") == set()


def _private_definitions(path):
    """Module-level functions and classes of ``path`` whose names start with _."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")}


def _referenced_names(path):
    """Every name ``path`` reads, reaches as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced_private_names(src, tests):
    paths = sorted(src.glob("*.py")) + sorted(tests.glob("*.py"))
    referenced = set().union(*map(_referenced_names, paths))
    return sorted(f"{path.name}:{name}" for path in sorted(src.glob("*.py"))
                  for name in _private_definitions(path) - referenced)


def test_every_private_src_name_is_referenced():
    src = Path(antibrackets.__file__).parent
    assert _unreferenced_private_names(src, Path(__file__).parent) == []


def _unread_public_functions(src):
    """``module:name`` for each module-level function of a src module whose
    name is public, that its module's __all__ leaves out and that no src
    module reads."""
    paths = sorted(src.glob("*.py"))
    referenced = set().union(*map(_referenced_names, paths))
    unread = []
    for path in paths:
        module = importlib.import_module(f"antibrackets.{path.stem}")
        kept = referenced | set(getattr(module, "__all__", ()))
        unread += [f"{path.name}:{node.name}"
                   for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.FunctionDef)
                   and not node.name.startswith("_") and node.name not in kept]
    return sorted(unread)


def test_every_public_function_is_exported_or_read_in_src():
    # a public function its module does not export is there for the
    # package's own callers; one that only tests call is dead code
    src = Path(antibrackets.__file__).parent
    assert _unread_public_functions(src) == []


# __all__ names that no other module, the README or perfbench reads, each
# kept for its reason
UNREAD_EXPORTS = [
    "qxrep.py:SingularMatrixError",  # raised to callers of the solve
    "qxrep.py:conjecture_coefficients",  # the conjecture's rational form
]


def _dead_exports(src, texts):
    """``module:name`` for each __all__ name of a src module that no other
    src module reads and that appears in none of ``texts`` as a word."""
    paths = sorted(src.glob("*.py"))
    referenced = {path: _referenced_names(path) for path in paths}
    dead = []
    for path in paths:
        others = set().union(*(names for other, names in referenced.items()
                               if other != path))
        module = importlib.import_module(f"antibrackets.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if name not in others and not any(
                    re.search(rf"\b{re.escape(name)}\b", text) for text in texts):
                dead.append(f"{path.name}:{name}")
    return sorted(dead)


def test_every_export_is_read_outside_its_module():
    texts = [README.read_text(),
             *(path.read_text() for path in sorted(ROOT.glob("perfbench/*.py")))]
    dead = _dead_exports(Path(antibrackets.__file__).parent, texts)
    assert dead == UNREAD_EXPORTS
