"""Every cache in the package is bounded, so long campaigns keep memory flat."""

import importlib
import inspect
import pkgutil

import twoside


def cached_functions():
    """Every lru_cache in the package's modules and classes, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(twoside.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"twoside.{info.name}")
        spaces = [vars(module)] + [vars(c) for _, c in inspect.getmembers(module, inspect.isclass)]
        for space in spaces:
            for obj in space.values():
                if hasattr(obj, "cache_info"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_cache_is_bounded():
    found = cached_functions()
    assert {
        "twoside.gf.f_mul", "twoside.gf.lane_mod", "twoside.gf.mover",
        "twoside.digital.order_key", "twoside.digital_kex._grid",
    } <= set(found)
    for name, fn in found.items():
        assert fn.cache_info().maxsize is not None, name
