"""Every per-input cache of the package is bounded."""

import inspect

from caches import cached_functions


def test_every_cache_on_a_function_with_arguments_has_a_maxsize():
    functions = cached_functions()
    names = {fn.__name__ for fn in functions}
    assert {"polygon_hrep", "fm_polytope", "normal_fan", "remove_redundant",
            "h_to_v", "_incidence", "_vertex_graph"} <= names
    for fn in functions:
        if inspect.signature(fn).parameters:
            assert fn.cache_parameters()["maxsize"] is not None, fn.__qualname__
