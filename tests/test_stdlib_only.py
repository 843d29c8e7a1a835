"""The package needs nothing beyond the standard library, and starts
without the parts of it that only code generation and introspection use."""

import ast
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "weightpoly"


def test_every_top_level_import_is_relative_or_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"


def test_importing_the_cli_leaves_out_dataclasses_and_the_introspection_modules():
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import weightpoly.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
            " & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    assert run.stdout == "[]\n"
