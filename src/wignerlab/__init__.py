"""Phase-space toolkit for photon-added and -subtracted multimode Gaussian states.

The analytic route (`photon_ops`, `analysis`) carries exact closed forms for
Wigner functions, truncated correlations, negativity witnessing, reduced
purities and passive-separability checks; the `fock` module is a brute-force
truncated Fock-space oracle that every closed form is tested against.
"""

from .analysis import (
    PurityReport,
    PurityScan,
    WitnessReport,
    marginal_wigner,
    negativity_witness,
    passive_separability_witness,
    purity_scan,
    reduced_purities,
    wigner_at_origin,
    wigner_minimum,
    wigner_purity,
)
from .covfile import CovarianceFile, load_covariance, save_covariance
from .errors import (
    CapacityError,
    CovarianceError,
    CutoffError,
    DimensionError,
    MixedStateError,
    ModeValidationError,
    ParseError,
    SubtractionUndefinedError,
    SymplecticError,
)
from .gaussian import (
    BlochMessiah,
    GaussianState,
    bloch_messiah,
    db_to_scale,
    gaussian_purity,
    gaussian_state,
    gaussian_wigner,
    random_mixed_cov,
    random_orthogonal_symplectic,
    random_pure_squeezed_cov,
    reduce_to_mode,
    symplectic_eigenvalues,
    validate_covariance,
    williamson,
)
from .phase_space import (
    apply_j,
    as_mode,
    basis_change_matrix,
    complete_symplectic_basis,
    mode_plane,
    mode_projector,
    random_mode,
    symplectic_form,
)
from .photon_ops import (
    MixtureEstimate,
    PhotonOpSpec,
    PolyGaussianWigner,
    add,
    characteristic_function,
    covariance_correction,
    decompose_pure_noise,
    displaced_poly_wigner,
    displacement_density,
    evaluate_wigner,
    mean_photon_number,
    mixture_reconstruction,
    nongaussian_wigner,
    output_covariance,
    poly_wigner_moments,
    subtract,
    truncated_correlation,
    two_point_correlation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
