"""Weighted Riesz bounded-variation toolkit.

Computes weighted Riesz p-variation seminorms by ball-packing
optimization, Muckenhoupt / reverse-Hölder / doubling weight constants
over finite cube families, weighted Sobolev norms, and variable-exponent
Luxemburg norms on sampled functions, and verifies the associated
norm-equivalence properties numerically at desk scale.
"""

from ._version import __version__
from .catalog import catalog_gradient, exponent_catalog, list_catalog, sample_catalog
from .errors import ToolkitError
from .grid import (
    Ball,
    BallCollection,
    Cube,
    FieldKind,
    Grid,
    SampledField,
    build_grid,
    gradient_fd,
    gradient_magnitude,
    node_set,
    oscillation,
    read_field,
    read_grid,
    riemann_integral,
    weighted_measure,
    write_field,
)
from .report import Report, ReportRow, emit_report
from .riesz import (
    CandidateSet,
    PackingSolution,
    ScoredCandidates,
    candidate_balls,
    classical_riesz_1d,
    lipschitz_field,
    pack,
    pack_1d_exact,
    pack_greedy,
    pack_local_search,
    riesz_variation,
    score_ball,
    weak_type_check,
)
from .sobolev import Mollifier, mollify, morrey_check, sobolev_norm, weighted_lp_norm
from .varexp import (
    LHDiagnostics,
    VariableSequence,
    char_norm,
    g_operator,
    gd_equivalence_check,
    harmonic_mean_exponent,
    lh_constants,
    luxemburg_norm,
    modular,
    rbv_var_modular,
    rbv_var_seminorm,
    seq_norm,
    varexp_sobolev_equivalence,
)
from .weights import (
    CubeFamily,
    RwEstimate,
    a1_constant,
    ap_constant,
    doubling_constant,
    dual_weight,
    estimate_rw,
    generate_cubes,
    rh_constant,
)
