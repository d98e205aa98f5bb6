"""geoaudit: audit IP prefix registrations for geographic consistency.

The names below are re-exported from their modules on first use (PEP 562),
so importing the package, or one stage module, loads no other stage.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ConsistencyClass": "classify",
    "ConsistencyRecord": "classify",
    "classify_one": "classify",
    "Registration": "registry",
    "RegionMap": "registry",
    "Rir": "registry",
    "Status": "registry",
    "default_region_map": "registry",
    "parse_prefix": "registry",
    "range_to_cidrs": "registry",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
