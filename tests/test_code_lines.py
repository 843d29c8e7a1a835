"""tools/code_lines.py counts what ROADMAP calls code lines: no comments,
blank lines or docstrings, and a multi-line string on each of its lines."""

import importlib.util
import os
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    text = """a string
over two lines"""
    return x, text


class C:
    """A class docstring
    over two lines."""

    z = (1,
         2)


async def g():
    """An async function docstring."""
    "a bare string after the docstring"
'''


def test_the_fixture_counts_its_code_lines_only():
    # import; def f; the string's two lines; return; class C; z's two lines;
    # async def g; the bare string, which is no docstring.
    assert _load_tool().code_lines(FIXTURE) == 10


def test_the_total_is_the_sum_of_the_module_counts(capsys):
    tool = _load_tool()
    assert tool.main() == 0
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in modules] == sorted(
        name[:-3] for name in os.listdir(tool.PACKAGE) if name.endswith(".py"))
    assert total == ["total", str(sum(int(count) for _, count in modules))]
    assert dict((name, int(count)) for name, count in modules) == tool.counts()
