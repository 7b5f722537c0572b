"""coarsek: finite-matrix computations over discretized simplicial complexes
with propagation control."""

from .geometry import (
    SimplicialComplex, SampledSpace, SamplePoint,
    build_complex, cycle_complex, circle_space, discretize,
    neighborhood, decompose, simplex_center,
)
from .operator import (
    FiniteOperator, opnorm, support, propagation, restrict,
)
from .controlled import (
    QuasiParams, KClassRep, HomotopyCertificate, ControlPair,
    is_quasi, is_quasi_projection, perturb_bound, stabilize,
    kappa_even, k0_points, interpolation_certificate, verify_certificate,
    compose_control_pairs, apply_control_pair, relaxed_params,
)
from .coarse import (
    CoarseMap, CoverIsometry, LipschitzHomotopy,
    expansion_function, delta_cover, ad, rotation_homotopy,
    partition_homotopy, homotopy_invariance_certificate,
)
from .mv import (
    MvPair, CutFunction, coercive_split, cia_midpoint, verify_weak_mv_pair,
    clutching_projection, local_index,
)
from .paths import PathOperator, eventual_propagation, trim, evaluate

__version__ = "0.1.0"
