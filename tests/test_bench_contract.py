"""The names bench/tracing.py wraps must exist, or `bench/run.py --trace 1` breaks."""

import importlib
import os
import sys

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)
try:
    import tracing
finally:
    sys.path.remove(BENCH_DIR)


def test_every_traced_name_is_a_callable_of_its_module():
    for module_name, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"weightpoly.{module_name}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{module_name}.{func}"


def test_every_cached_name_has_cache_info():
    for name in tracing.CACHED:
        module_name, func = name.split(".")
        assert hasattr(getattr(importlib.import_module(f"weightpoly.{module_name}"), func),
                       "cache_info"), name
