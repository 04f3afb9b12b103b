"""The package-level names and the README's library example."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import antibrackets

README = Path(__file__).resolve().parents[1] / "README.md"


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
