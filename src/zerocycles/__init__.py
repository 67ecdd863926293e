"""Exact-arithmetic toolkit for points and 0-cycles on cubic and del Pezzo surfaces."""

from .algebra import AlgElement, EtaleAlgebra, ZeroDivisorFound
from .chow import CurveDegrees, TriClass, collinearity_report, pencil_rank, segre_s2
from .descent import (
    Certificate,
    CycleState,
    DelPezzo,
    Goal,
    Move,
    apply_move,
    find_certificate,
    genus,
    h0,
    prove_bound_suite,
    verify_certificate,
)
from .geometry import (
    CubicForm,
    LengthThreeScheme,
    Line,
    PlanePencil,
    ProjPoint,
    fiber_plane,
    line_section,
    tangent_residual,
    tangent_triple,
    third_point,
)
from .pointsearch import PointRecord, enumerate_rational, saturate

__version__ = "0.1.0"
