"""Every per-input cache of the package is a bounded, plain functools.lru_cache."""

import functools
import inspect

from caches import cached_functions


def test_every_cache_on_a_function_with_arguments_has_a_maxsize():
    functions = cached_functions()
    names = {fn.__name__ for fn in functions}
    assert {"polygon_hrep", "fm_polytope", "normal_fan", "remove_redundant",
            "h_to_v", "_incidence", "_vertex_graph", "count_lattice_points",
            "combinatorial_fingerprint"} <= names
    for fn in functions:
        if inspect.signature(fn).parameters:
            assert fn.cache_parameters()["maxsize"] is not None, fn.__qualname__


def test_every_cache_is_a_plain_lru_cache():
    plain = type(functools.lru_cache(maxsize=1)(len))
    functions = cached_functions()
    assert {"_incidence", "_scan_setup"} <= {fn.__name__ for fn in functions}
    for fn in functions:
        assert type(fn) is plain, fn.__qualname__
