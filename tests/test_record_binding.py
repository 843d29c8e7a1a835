"""A record's constructor binds a call with keywords or defaults through a
function Python itself compiled with the constructor's signature, made once
per class on the first such call and never at import."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Prints the names of the record classes whose binder is compiled: after the
# CLI's import, after a call that fills a default, and after a second one,
# then whether the second call reused the first binder.
CODE = """import sys
sys.path.insert(0, {src!r})
import weightpoly.cli
from weightpoly import builders, counting, polytopes, reference, toric

def binders():
    found = {{}}
    for module in (polytopes, builders, counting, toric, reference):
        for cls in vars(module).values():
            code = getattr(getattr(cls, "__init__", None), "__code__", None)
            if isinstance(cls, type) and code and "binder" in code.co_freevars:
                cell = cls.__init__.__closure__[code.co_freevars.index("binder")]
                if cell.cell_contents is not None:
                    found[cls.__qualname__] = cell.cell_contents
    return found

print(sorted(binders()))
counting.DualityInvariant("dimension", 2, 2)
first = binders()
print(sorted(first))
counting.DualityInvariant(name="dimension", primal=2, dual=2)
print(sorted(binders()), binders()["DualityInvariant"] is first["DualityInvariant"])
"""


def test_binders_are_compiled_once_per_class_on_first_use_and_not_at_import():
    run = subprocess.run([sys.executable, "-c", CODE.format(src=str(SRC))], check=True,
                         capture_output=True, text=True)
    assert run.stdout.splitlines() == ["[]", "['DualityInvariant']",
                                       "['DualityInvariant'] True"]

