"""Rate regions and code simulation for lossy source coding whose
reconstruction is required to follow a prescribed output law."""

from .info import (
    CapExceeded,
    Channel,
    DistortionMatrix,
    DomainError,
    JointPmf,
    Pmf,
    all_blocks,
    binary_entropy,
    entropy,
    mutual_information,
    product_extension,
    total_variation,
)
from .transport import (
    Coupling,
    TransportProblem,
    solve_ot,
)
from .region import (
    GaussianSpec,
    MarkovTriple,
    RegionCurve,
    bsc_boundary,
    c0_bsc,
    det_decoder_min_rate,
    empirical_region_min_rate,
    gaussian_boundary,
    gaussian_mmi,
    i0_solver,
    mmi_constrained_output,
    wyner_bsc,
)
from .codesim import (
    SimConfig,
    SimReport,
    decode,
    generate_codebook,
    likelihood_encode,
    mixture_output_law,
    run_simulation,
    soft_covering_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
