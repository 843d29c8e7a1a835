"""Every per-input cache of the weightpoly modules, found by introspection."""

import importlib
import pkgutil

import weightpoly


def cached_functions() -> list:
    """Each distinct function with a cache_clear bound in a weightpoly module."""
    found = {}
    for info in pkgutil.iter_modules(weightpoly.__path__):
        module = importlib.import_module(f"weightpoly.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def clear_caches() -> None:
    """Empty every cache of cached_functions(), so the next call recomputes."""
    for fn in cached_functions():
        fn.cache_clear()
