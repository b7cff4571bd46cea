"""coarsedim: covers, nerve maps, and asymptotic-dimension certificates on
finite coarse spaces, in exact rational arithmetic."""

from .asdim import (
    AsdimPairCertificate,
    BlendFunction,
    FillerParams,
    FillerResult,
    RetractResult,
    SkeletonResult,
    TrimResult,
    blend_alpha,
    build_skeleton_pu,
    check_asdim_pair,
    choose_filler_params,
    filler,
    find_witness_bruteforce,
    skeletal_retract,
    trim_to_cover,
)
from .covers import (
    BoundednessCertificate,
    ChainGraph,
    Cover,
    FiniteCoarseSpace,
    RefinementCheck,
    chain_graph,
    chain_index,
    chain_indices,
    interior,
    is_refinement,
    is_uniformly_bounded,
    iterated_star,
    shrink_with_multiplicity,
    star_cover,
    star_misfit,
    star_set,
)
from .errors import ConstructionError, InputError, PreconditionError
from .extnat import INFINITY, ExtNat
from .generators import (
    GeometricInstance,
    GridInstance,
    Lcg,
    LineInstance,
    gen_grid2d,
    gen_line,
    gen_random_geometric,
)
from .metric import (
    DeltaPUCertificate,
    FiniteMetricSpace,
    ball_cover,
    certify_delta_pu,
    comparison_backward,
    comparison_forward,
)
from .pou import (
    BarycentricPoint,
    PartitionOfUnity,
    PUCertificate,
    SimplicialComplex,
    VariationResult,
    barycentric_map,
    certify_pu,
    coarsening_witnesses,
    l1_distance,
    nerve,
    quotient_variation_bound,
    scalar_variation,
    variation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
