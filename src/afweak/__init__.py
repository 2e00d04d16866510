"""Biclosed root sets and the extended weak order for the classical
affine families A, B, C, D.

The package computes with sets of positive roots that are closed
and coclosed in every rank-2 subsystem: building them from fan faces,
classifying them as triples (face, selected components, group element),
converting them to translation-invariant total orders of the integers,
and joining/meeting them exactly in families A and C.

Every public name below loads on first use (PEP 562): ``import afweak``
imports no layer, and ``afweak.close`` imports ``afweak.closure`` and
its own imports only, so a command pays for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the layer module that defines it
_LAYERS = {
    "errors": ("AfweakError",),
    "roots": ("AffineType", "Root", "canonical_root", "delta_height",
              "rank2_subsystem", "root_window"),
    "perms": ("AffinePermutation", "from_window", "identity", "inversions",
              "invert", "length", "multiply", "reflection",
              "simple_reflections"),
    "closure": ("WindowSet", "b_infinity", "close", "commensurable",
                "doubling_check", "interior", "is_biclosed", "window_set"),
    "fan": ("BiclosedTriple", "FanFace", "act", "build_biclosed", "classify",
            "dominant_chamber", "enumerate_faces", "membership", "origin_face",
            "parahoric", "path_component_poset", "triple_of_element"),
    "orders": ("DTwist", "PeriodicOrder", "compare", "d_twist_set",
               "inversion_set", "normalize", "order_from_triple",
               "periodic_order", "precedes", "standard_order"),
    "lattice": ("ThresholdRelation", "iota", "join_A", "join_C", "join_finite",
                "meet_A", "meet_C", "pi", "sigma", "threshold_closure",
                "try_join"),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
