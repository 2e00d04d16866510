"""Biclosed root sets and the extended weak order for the classical
affine families A, B, C, D.

The package computes with sets of positive affine roots that are closed
and coclosed in every rank-2 subsystem: building them from fan faces,
classifying them as triples (face, selected components, group element),
converting them to translation-invariant total orders of the integers,
and joining/meeting them exactly in families A and C.
"""

from .errors import AfweakError
from .roots import (
    AffineType,
    Root,
    canonical_root,
    delta_height,
    rank2_subsystem,
    root_window,
)
from .perms import (
    AffinePermutation,
    from_window,
    identity,
    inversions,
    invert,
    length,
    multiply,
    reflection,
    simple_reflections,
)
from .closure import (
    WindowSet,
    b_infinity,
    close,
    commensurable,
    doubling_check,
    interior,
    is_biclosed,
    window_set,
)
from .fan import (
    BiclosedTriple,
    FanFace,
    act,
    build_biclosed,
    classify,
    dominant_chamber,
    enumerate_faces,
    membership,
    origin_face,
    parahoric,
    path_component_poset,
    triple_of_element,
)
from .orders import (
    DTwist,
    PeriodicOrder,
    compare,
    d_twist_set,
    inversion_set,
    normalize,
    order_from_triple,
    periodic_order,
    precedes,
    standard_order,
)
from .lattice import (
    ThresholdRelation,
    iota,
    join_A,
    join_C,
    join_finite,
    meet_A,
    meet_C,
    pi,
    sigma,
    threshold_closure,
    try_join,
)

__version__ = "0.1.0"
