"""PSD and SOS certification for even-order three dimensional strongly
symmetric circulant tensors.

The family A(m, d, u, c) has three independent entries: d on the
diagonal, u where an index tuple takes exactly two distinct values, c
where it takes all three. This package decides positive
semi-definiteness (via smallest H-eigenvalues) and sum-of-squares
membership (via Gram-matrix semidefinite programs), computes the
threshold functions of d for both properties, locates and verifies the
breakpoints of the PSD threshold, and emits machine-checkable
certificate bundles.
"""

from circulant3.boundary import (
    Breakpoint,
    BoundaryReport,
    analyze,
    breakpoint_u0,
    breakpoint_v0,
    n_value,
)
from circulant3.eigen import (
    EigenResult,
    SolverConfig,
    SolverFailure,
    is_psd,
    lambda_min,
)
from circulant3.kernels import BACKEND
from circulant3.sdp import SdpProblem, SdpSolution, check_certificate, solve
from circulant3.sos import (
    CertificateBundle,
    GramCertificate,
    MonomialBasis,
    SosUndecided,
    build_gram_problem,
    certify_pns_free,
    is_sos,
    m_value,
)
from circulant3.tensor import (
    CirculantTensor,
    TernaryForm,
    dd_bound,
    make_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BoundaryReport",
    "Breakpoint",
    "CertificateBundle",
    "CirculantTensor",
    "EigenResult",
    "GramCertificate",
    "MonomialBasis",
    "SdpProblem",
    "SdpSolution",
    "SolverConfig",
    "SolverFailure",
    "SosUndecided",
    "TernaryForm",
    "analyze",
    "breakpoint_u0",
    "breakpoint_v0",
    "build_gram_problem",
    "certify_pns_free",
    "check_certificate",
    "dd_bound",
    "is_psd",
    "is_sos",
    "lambda_min",
    "m_value",
    "make_tensor",
    "n_value",
    "solve",
    "__version__",
]
