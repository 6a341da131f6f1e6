"""Sum-of-squares membership and the SOS threshold in the diagonal entry.

A degree-m form is SOS exactly when some positive semidefinite Gram
matrix G over the degree-m/2 monomial basis reproduces its
coefficients. This module compiles a tensor's form into that Gram
problem, decides membership with the interior-point solver (one fixed
tolerance relative to the largest coefficient, certified acceptances
and rejections, and an explicit "undecided" outcome instead of silent
failure), computes the minimal diagonal value making a tensor SOS, and
packages per-point certification bundles.

Every form of the family is invariant under permuting x1, x2, x3, so
the Gram matrix is sought among those the permutations leave
unchanged: G = Q_t H_t Q_t' + Q_s H_s Q_s' + Q_1 H_q Q_1' + Q_2 H_q Q_2'
on the isotypic components of the monomial basis, the trivial, the
sign and the copies of the two-dimensional standard representation
with their partners ("Symmetry groups, semidefinite programs, and sums
of squares", Gatermann and Parrilo, 2004). Such a G meets every
constraint once it meets their sum over each S3 orbit of exponent
triples. At the PSD threshold the form has real zeros, every PSD Gram
matrix has their monomial vectors in its kernel, and the problem has
no interior; it is solved on that face of the PSD cone ("partial
facial reduction", Permenter and Parrilo), held as its coordinates in
the components, with the dependent restricted constraints replaced by
an orthogonal basis of their span. The G mapped back from H =
blockdiag(H_t, H_s, H_q) is checked against the full problem. On the
face lambda_min(G) = 0 whatever H is, so the face solve stops at its
first PSD iterate, while a full solve, on the full constraints, runs to
the optimum, whose t* is the certificate's margin.

What the Gram problems of one order share, the constraint stack, its
orbit sums, the components and the orbit constraints restricted to
them, is built once per order, on first use, as read-only arrays;
each problem adds only its right-hand sides, each face its coordinates.

The form and its Gram constraints are linear in (d, u, c), and the SOS
forms are a convex cone ("Semidefinite Optimization and Convex Algebraic
Geometry", Blekherman, Parrilo and Thomas, 2012, ch. 3). So the SOS
threshold on the cone K between the breakpoint rays (u0, -1) and
(v0, +1), which holds the nonpositive quadrant and both linear branches
and where N is linear, needs no face solve of its own: a nonnegative
combination of the two certificates at the order's breakpoints, each
found once by a face solve and cached, certifies the form at d = N, and
is checked against the point's own problem like any certificate.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from circulant3 import kernels, sdp
from circulant3.eigen import (
    DEFAULT_CONFIG,
    SolverConfig,
    SolverFailure,
    _require_positive,
    _scan_min,
    _tensor_scale,
)
from circulant3.tensor import (
    CirculantTensor,
    Scalar,
    TernaryForm,
    dd_bound,
    make_tensor,
    require_even_order,
)

DEFAULT_SOS_TOL = DEFAULT_CONFIG.sos_tol
_ZERO_TOL = 1e-9  # a form value this small, relative to the tensor's scale, is a zero


class SosUndecided(RuntimeError):
    """The SDP evidence is too ambiguous for a trustworthy verdict.

    Raised instead of returning a boolean when neither the primal
    matrix nor the dual bound separates the instance from the threshold
    at the achieved solver precision.
    """

    def __init__(self, message: str, solution: Optional[sdp.SdpSolution] = None):
        super().__init__(message)
        self.solution = solution


def _exponent_triples(k: int) -> Tuple[Tuple[int, int, int], ...]:
    """Exponent triples of total degree k, graded-lex descending."""
    triples = ((a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1))
    return tuple(sorted(triples, reverse=True))


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered exponent triples of total degree k (graded-lex descending)."""

    k: int
    monos: Tuple[Tuple[int, int, int], ...]

    @classmethod
    def for_half_degree(cls, k: int) -> "MonomialBasis":
        if k < 1:
            raise ValueError(f"half-degree must be >= 1, got {k}")
        return cls(k, _exponent_triples(k))

    def __len__(self) -> int:
        return len(self.monos)

    def index(self, triple: Tuple[int, int, int]) -> int:
        return self.monos.index(triple)


@dataclass(frozen=True)
class GramCertificate:
    """PSD Gram matrix witnessing an SOS decomposition of a form.

    ``min_eig`` is the smallest eigenvalue of G (nonnegative after the
    small diagonal shift applied on construction); ``reconstruction_error``
    is the worst coefficient mismatch of z(x)^T G z(x) against the
    target form, relative to the largest absolute coefficient.
    """

    basis: MonomialBasis
    G: np.ndarray
    min_eig: float
    reconstruction_error: float

    def to_json_dict(self) -> dict:
        lower = self.G[np.tril_indices(len(self.basis))].tolist()
        return {
            "basis": [list(t) for t in self.basis.monos],
            "gram_lower_triangle": lower,
            "half_degree": self.basis.k,
            "min_eig": float(self.min_eig),
            "reconstruction_error": float(self.reconstruction_error),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GramCertificate":
        """Inverse of to_json_dict; ValueError for a basis that is not the
        half-degree's or a lower triangle of the wrong length."""
        k = int(doc["half_degree"])
        basis = MonomialBasis(k, tuple(tuple(int(e) for e in t) for t in doc["basis"]))
        if basis != MonomialBasis.for_half_degree(k):
            raise ValueError(f"basis is not the degree-{k} monomial basis")
        n = len(basis)
        lower = [float(v) for v in doc["gram_lower_triangle"]]
        if len(lower) != n * (n + 1) // 2:
            raise ValueError(
                f"gram_lower_triangle has {len(lower)} entries, expected {n * (n + 1) // 2}"
            )
        G = np.zeros((n, n))
        rows, cols = np.tril_indices(n)
        G[rows, cols] = lower
        G[cols, rows] = lower
        return cls(basis, G, float(doc["min_eig"]), float(doc["reconstruction_error"]))


class _GramStructure(NamedTuple):
    """The parts of every degree-m Gram problem that depend on m alone.

    ``problem`` is the constraint stack of build_gram_problem with zero
    right-hand sides, one matrix per exponent triple of ``monos``.
    ``orbit_sum`` is the 0/1 matrix that sums over each S3 orbit of those
    triples. ``isotypic`` holds (Q_t, Q_s, Q_1, Q_2), the columns of one
    orthogonal matrix: orthonormal bases of the trivial and the sign
    component of the monomial basis under permuting x1, x2, x3, of the
    first vectors of its copies of the standard representation rho, and
    their partners Q_2 = E_21 Q_1. With P_s the permutation matrix of s
    on the basis ((P G P')[i, j] = G[p[i], p[j]]), Q_t, Q_s and Q_1 span
    the ranges of E_t = (1/6) sum_s P_s, E_s = (1/6) sum_s sign(s) P_s and
    E_11, where E_ab = (2/6) sum_s rho(s)[a, b] P_s; rho is the same rule
    on the degree-1 basis, restricted to the plane x1 + x2 + x3 = 0, so
    that E_21 E_11 = E_21 (the other rule, P_s', breaks that).
    ``orbit_blocks`` holds the orbit sums A_o of the constraints restricted
    to each component: Q_t' A_o Q_t, Q_s' A_o Q_s and Q_1' A_o Q_1 +
    Q_2' A_o Q_2.
    """

    basis: MonomialBasis
    monos: Tuple[Tuple[int, int, int], ...]
    problem: sdp.SdpProblem
    orbit_sum: np.ndarray
    isotypic: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    orbit_blocks: Tuple[np.ndarray, np.ndarray, np.ndarray]


def _permutation_matrices(monos: Tuple[Tuple[int, int, int], ...]) -> np.ndarray:
    """One matrix P per permutation of x1, x2, x3 on ``monos``: (P G P')[i, j] = G[p[i], p[j]]."""
    eye = np.eye(len(monos))
    return np.array([eye[[monos.index(tuple(e[k] for k in p)) for e in monos]]
                     for p in itertools.permutations(range(3))])


# an orthonormal basis of the plane x1 + x2 + x3 = 0, on which the
# permutations act by the standard representation of S3
_PLANE = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])


# one entry per even order; SdpProblem refuses a side above 64, that is
# any order above 18, before an entry is stored
@functools.lru_cache(maxsize=None)
def _gram_structure(m: int) -> _GramStructure:
    """The order's Gram structure, built and checked on first use, read-only."""
    basis = MonomialBasis.for_half_degree(m // 2)
    n = len(basis)
    monos_m = _exponent_triples(m)
    index = {mu: pos for pos, mu in enumerate(monos_m)}
    coeffs = np.zeros((len(monos_m), n, n))
    for i, ei in enumerate(basis.monos):
        for j, ej in enumerate(basis.monos):
            mu = (ei[0] + ej[0], ei[1] + ej[1], ei[2] + ej[2])
            coeffs[index[mu], i, j] = 1.0
    orbit_of: dict = {}
    orbit = [orbit_of.setdefault(tuple(sorted(mu)), len(orbit_of)) for mu in monos_m]
    orbit_sum = np.zeros((len(orbit_of), len(monos_m)))
    orbit_sum[orbit, np.arange(len(monos_m))] = 1.0
    orbit_coeffs = np.tensordot(orbit_sum, coeffs, axes=1)
    P = _permutation_matrices(basis.monos)
    rho = _PLANE.T @ _permutation_matrices(_exponent_triples(1)) @ _PLANE
    sign = np.round(np.linalg.det(rho))
    E_t, E_s, E_11, E_21 = (np.tensordot(w, P, axes=1) for w in (
        np.ones(6) / 6, sign / 6, rho[:, 0, 0] / 3, rho[:, 1, 0] / 3))
    # each E is a symmetric projector: its eigenvectors of eigenvalue 1
    Q_t, Q_s, Q_1 = (Q[:, lam > 0.5] for lam, Q in map(np.linalg.eigh, (E_t, E_s, E_11)))
    Q_2 = E_21 @ Q_1
    C_t, C_s, C_1, C_2 = (Q.T @ orbit_coeffs @ Q for Q in (Q_t, Q_s, Q_1, Q_2))
    isotypic, orbit_blocks = (Q_t, Q_s, Q_1, Q_2), (C_t, C_s, C_1 + C_2)
    for array in (coeffs, orbit_sum) + isotypic + orbit_blocks:
        array.flags.writeable = False
    return _GramStructure(
        basis,
        monos_m,
        sdp.SdpProblem(n, coeffs, np.zeros(len(monos_m))),
        orbit_sum,
        isotypic,
        orbit_blocks,
    )


def build_gram_problem(form: TernaryForm) -> sdp.SdpProblem:
    """Equality constraints tying a Gram matrix to the form's coefficients.

    One constraint per degree-m exponent triple mu (including those with
    zero coefficient): the sum of G over all basis index pairs (i, j)
    with exp_i + exp_j = mu equals the coefficient of mu. The constraint
    stack is the order's (_gram_structure), shared by every form of that
    degree and read-only; only the right-hand sides are built per call.
    """
    m = form.degree
    if m % 2 != 0:
        raise ValueError(f"degree must be even for a Gram construction, got {m}")
    structure = _gram_structure(m)
    return structure.problem.with_rhs([float(form.coefficient(*mu)) for mu in structure.monos])


def _zeros(t: CirculantTensor) -> List[Tuple[float, float, float]]:
    """Real zeros of the form on the two-equal-coordinate section; empty off the threshold.

    Each polished local minimum of the section that ``lambda_min``'s scan
    searches (kernels.section_minima) is taken when it is a zero, not
    only the lowest one. (1, 1, 1) lies on the section, at t = pi/4, so a
    zero there is one of these minima. A form can vanish on more than one
    S3 orbit: at the breakpoints (6, -70/11, 1) and (8, -686/43, 1) it
    vanishes at (1, 1, 1) and at a multiple of (-2, -2, 1), and the face
    cut by (1, 1, 1) alone holds no PSD Gram matrix. A point of the unit
    m-norm sphere is a zero when |f| there is at most _ZERO_TOL times the
    tensor's scale |d| + dd_bound.

    The minima are the (lambda, x1, x2, x3, residual) records of d = 0,
    the section N's scan searched (kernels.cached_section_minima): on the
    unit m-norm sphere the form at d is the one at d = 0 plus d, so a
    record is a zero at d when |lambda + d| is within the tolerance.
    """
    m, d, u, c = t.m, float(t.d), float(t.u), float(t.c)
    tol = _ZERO_TOL * _tensor_scale(t)
    return [(x1, x2, x3) for lam, x1, x2, x3, _ in kernels.cached_section_minima(m, 0.0, u, c)
            if abs(lam + d) <= tol]


_Face = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _face(t: CirculantTensor) -> Optional[_Face]:
    """The face every PSD Gram matrix of the form lies on, as its coordinates (K_t, K_s, K_1).

    A real zero x of the form forces G z(x) = 0 for every PSD Gram matrix
    G, so G lies on the complement of the rows of Z, the z-vectors of the
    zeros and their coordinate permutations. Z' Z commutes with the
    permutations, so by Schur's lemma that complement is spanned by
    [Q_t K_t, Q_s K_s, Q_1 K_1, Q_2 K_1] (see _GramStructure), with K_c
    an orthonormal basis of the null space of Z Q_c; a singular value of
    Z Q_c counts as zero below 1e-9 of the largest of them, Z's largest.
    On u = c = d > 0 the form is u (x1+x2+x3)^m, whose zeros fill a
    plane; there the face is the single symmetric vector w of multinomial
    coefficients of (x1+x2+x3)^(m/2), K_t = Q_t' w / |w|, and u w w' is
    the exact Gram matrix. None when the form has no zero.
    """
    structure = _gram_structure(t.m)
    basis, (Q_t, Q_s, Q_1, _) = structure.basis, structure.isotypic
    if float(t.d) == float(t.u) == float(t.c) > 0:
        w = np.array([math.factorial(basis.k) / math.prod(map(math.factorial, e))
                      for e in basis.monos])
        return ((Q_t.T @ w / np.linalg.norm(w))[:, None],
                np.zeros((Q_s.shape[1], 0)), np.zeros((Q_1.shape[1], 0)))
    zeros = _zeros(t)
    if not zeros:
        return None
    Z = np.array([[p[0] ** a * p[1] ** b * p[2] ** g for a, b, g in basis.monos]
                  for x in zeros for p in itertools.permutations(x)])
    # only U is read: once Z has a row per component coordinate the reduced
    # SVD holds all of U, and the full one would build a square Vt of Z's
    # row count (12,006 rows where every section point is a zero)
    svds = [np.linalg.svd(Q.T @ Z.T, full_matrices=len(Z) < Q.shape[1])[:2]
            for Q in (Q_t, Q_s, Q_1)]
    top = max(sing[0] for _, sing in svds if len(sing))
    return tuple(U[:, int(np.sum(sing > 1e-9 * top)):] for U, sing in svds)


def _blocks(face: _Face) -> Tuple[slice, slice, slice]:
    """The rows and columns of H_t, H_s and H_q in H = blockdiag(H_t, H_s, H_q)."""
    t, s, q = (K.shape[1] for K in face)
    return slice(0, t), slice(t, t + s), slice(t + s, t + s + q)


def _restrict(m: int, problem: sdp.SdpProblem, face: _Face) -> sdp.SdpProblem:
    """The face problem in H = blockdiag(H_t, H_s, H_q), one constraint per S3 orbit, independent only.

    ``problem`` is the full Gram problem and ``face`` comes from _face.
    With C_c the order's orbit blocks (see _GramStructure), an orbit sum
    restricts to blockdiag(K_c' C_c K_c), with the sum of the orbit's
    right-hand sides. The restricted constraints, the rows of the L x s^2
    stack A, are linearly dependent (the zeros tie them together). The
    eigenvectors U of the small L x L matrix A A' whose eigenvalues exceed
    1e-12 of the largest span the same row space through U' A, whose rows
    are mutually orthogonal (U' A A' U is diagonal); the right-hand sides
    are combined alike, U' b. The eigenvalues of A A' are the squared singular values
    of A, so the cut keeps the directions whose singular value exceeds
    about 1e-6 of the largest: a face whose rank needs a finer resolution
    than that is not separated, its dropped right-hand sides are lost,
    and the certificate check against the full problem then leaves the
    verdict undecided. On the table's faces the kept eigenvalues are at
    least 2e-2 of the largest and the dropped ones at most 1e-15 of it,
    so the rank is never in doubt there.
    """
    structure = _gram_structure(m)
    side = sum(K.shape[1] for K in face)
    stacked = np.zeros((len(structure.orbit_sum), side, side))
    for block, K, C in zip(_blocks(face), face, structure.orbit_blocks):
        stacked[:, block, block] = K.T @ C @ K
    A = stacked.reshape(-1, side * side)
    lam, U = np.linalg.eigh(A @ A.T)
    U = U[:, lam > 1e-12 * lam[-1]]
    coeffs = (U.T @ A).reshape(-1, side, side)
    rhs = U.T @ (structure.orbit_sum @ problem.rhs)
    return sdp.SdpProblem(side, 0.5 * (coeffs + np.swapaxes(coeffs, 1, 2)), rhs)


def _lift(m: int, H: np.ndarray, face: _Face) -> np.ndarray:
    """G = sum_c B_c H_c B_c' + B_2 H_q B_2' from _restrict's H, with B_c = Q_c K_c and B_2 = Q_2 K_1."""
    Q_t, Q_s, Q_1, Q_2 = _gram_structure(m).isotypic
    K_t, K_s, K_1 = face
    t, s, q = _blocks(face)
    return sum(B @ H[b, b] @ B.T for B, b in (
        (Q_t @ K_t, t), (Q_s @ K_s, s), (Q_1 @ K_1, q), (Q_2 @ K_1, q)))


def _solve_on_face(m: int, problem: sdp.SdpProblem, face: _Face) -> sdp.SdpSolution:
    """The face solve on one constraint per S3 orbit, over the face's isotypic blocks.

    ``problem`` is the full Gram problem of an S3-invariant form and
    ``face`` its coordinates from _face. The orbit sums of its
    constraints, restricted to the face (_restrict), are solved with
    target 0, which stops at the first iterate or predictor point with a
    PSD projection, and G is mapped back from the diagonal blocks of H
    (_lift). That G lies on the face, is PSD when H is, and is left
    unchanged by permuting x1, x2, x3 (Schur's lemma), so it meets each
    single constraint: <A_nu, G> is the same across an orbit, hence the
    orbit's sum of b over its size, and b is constant on the orbit. The
    solution's other fields are the block problem's. Where the zeros'
    monomial vectors span the whole basis (the zero form at m = 4) the
    face is {0}: G = 0 is its one point, and nothing is solved.
    """
    if not any(K.shape[1] for K in face):
        G = np.zeros((problem.dim,) * 2)
        return sdp.SdpSolution(G, 0.0, "feasible", 0, 0.0, 0.0, "feasible")
    solution = sdp.solve(_restrict(m, problem, face), target=0.0)
    return dataclasses.replace(solution, G=_lift(m, solution.G, face))


def _require_float_coefficients(t: CirculantTensor, form: TernaryForm) -> None:
    """ValueError naming m, d, u and c when a coefficient of the form is not a finite float.

    A finite but huge u or d (say u = 1e308 at m = 6) overflows once
    multiplied by the multinomial coefficients, and the Gram problem
    built from it would be refused for data that names no input.
    """
    try:
        finite = all(math.isfinite(float(v)) for v in form.coeffs.values())
    except OverflowError:  # an int or Fraction beyond the float range
        finite = False
    if not finite:
        raise ValueError(
            f"the form at m = {t.m}, d = {t.d}, u = {t.u}, c = {t.c} has coefficients "
            f"beyond the float range"
        )


def _gram_problem_of(t: CirculantTensor) -> sdp.SdpProblem:
    """build_gram_problem of the tensor's form, once its order and coefficients are checked."""
    require_even_order(t.m)
    form = t.to_form()
    _require_float_coefficients(t, form)
    return build_gram_problem(form)


def _certify(
    m: int, problem: sdp.SdpProblem, G: np.ndarray, tol: float
) -> Tuple[GramCertificate, bool, float]:
    """G, shifted by -lambda_min(G) onto the PSD cone, as a certificate for ``problem``.

    Returns it with check_certificate's verdict and worst violation at
    tol times the problem's scale.
    """
    scale = problem.scale()
    lam = float(np.linalg.eigvalsh(G)[0])
    if lam < 0.0:
        G = G + (-lam) * np.eye(G.shape[0])
        lam = 0.0
    cert = GramCertificate(_gram_structure(m).basis, G, lam, problem.violation(G) / scale)
    ok, viol = sdp.check_certificate(G, problem, tol=tol * scale)
    return cert, ok, viol


def is_sos(
    t: CirculantTensor, tol: float = DEFAULT_SOS_TOL
) -> Tuple[bool, Optional[GramCertificate]]:
    """Decide whether the tensor's form is a sum of squares.

    One tolerance decides: theta = tol * max(1, max_l |b_l|) (tol finite and
    > 0, else ValueError), relative to the largest coefficient b_l of the
    form, whatever precision the solver reached; the solver encloses the
    optimal t in [t*, t* + precision]. "Yes" when the certificate that
    _certify builds from the solver's G (shifted by -lambda_min(G), that
    is by -t*, onto the PSD cone) passes its independent check at theta;
    the shift moves each even-exponent constraint by |t*|, so t* >= -theta
    is tried first and a rejection builds no certificate.
    "No" when the whole enclosure lies below -theta. Anything else raises
    SosUndecided.

    Where the form has real zeros (at a threshold) the Gram problem has
    no interior, and the SDP is solved on the face those zeros cut out
    (see _face), with one constraint per S3 orbit, on the face's
    coordinates in the order's isotypic components (see _solve_on_face);
    solution.t_star is then the block problem's. On the face G is
    singular whatever H is, so a larger lambda_min(H) buys the
    certificate no margin: that solve gets target 0 and stops at its
    first iterate or predictor point with a PSD projection (stop
    "feasible"), or runs on to the optimum when the face holds none. The
    full problem keeps every constraint and is solved to
    its optimum, as t* there is the certificate's margin. The certificate
    is still checked against the full problem, so a wrong face can make
    the verdict undecided but never a wrong "yes". A solve that breaks
    down with an iterate that does not project onto the constraints in
    floating point is undecided too, and says so. A form whose
    coefficients overflow a float raises ValueError naming m, d, u and c.
    """
    _require_positive("tol", tol)
    problem = _gram_problem_of(t)
    face = _face(t)
    if face is None:
        solution = sdp.solve(problem)
    else:
        solution = _solve_on_face(t.m, problem, face)
    theta = tol * problem.scale()
    if solution.t_star >= -theta:
        cert, ok, viol = _certify(t.m, problem, solution.G, tol)
        if ok:
            return True, cert
        raise SosUndecided(
            f"certificate failed independent verification (violation {viol:.3e} > {theta:.3e})",
            solution,
        )
    if solution.t_star + solution.precision < -theta:
        return False, None
    if not math.isfinite(solution.t_star):
        raise SosUndecided(
            f"the SDP broke down after {solution.iterations} iterations: its iterate "
            f"does not project onto the constraints in floating point",
            solution,
        )
    raise SosUndecided(
        f"ambiguous SOS evidence: optimum enclosed in [{solution.t_star:.3e}, "
        f"{solution.t_star + solution.precision:.3e}], threshold {-theta:.3e}",
        solution,
    )


def m_value(m: int, u: Scalar, c: Scalar, cfg: SolverConfig = DEFAULT_CONFIG) -> Scalar:
    """Minimal diagonal entry d making A(m, d, u, c) a sum of squares.

    Two parameter ranges have exact closed forms (returned in the exact
    arithmetic of the inputs and verified by a certificate): u = c > 0,
    where the threshold is u itself, and u <= 0, c <= 0, where it is
    -u(2^m - 2) - c(3^{m-1} - 2^m + 1); see _threshold for where that
    certificate comes from. Everywhere else the value comes
    from bisection on d, to within ``cfg.tol_d``, between the PSD
    threshold N of boundary.n_value (off the closed forms the scan's
    lower bound, never above the SOS threshold) and the
    diagonal-dominance bound, exploiting upward closure of the SOS
    property in d; it is N itself when is_sos accepts d = N. Every SOS
    verdict is decided at ``cfg.sos_tol``; SolverConfig has checked both
    tolerances before any search runs. Raises SosUndecided, naming the d
    at which is_sos could not decide, rather than return an uncertified M.
    """
    value, _, undecided = _guarded_threshold(m, u, c, cfg)
    if undecided is not None:
        raise SosUndecided(undecided)
    return value


class Threshold(NamedTuple):
    """M, the certificate is_sos accepted at d = M, and why it is missing.

    ``certificate`` is None exactly when ``undecided`` names the point
    at which is_sos could not decide; M is then the best locatable
    value, not a certified one.
    """

    value: Scalar
    certificate: Optional[GramCertificate]
    undecided: Optional[str] = None


# one entry per order, breakpoint ray and tolerance: m = 4 ... 18 at one
# sos_tol fill 16
@functools.lru_cache(maxsize=16)
def _breakpoint_gram(m: int, side: int, sos_tol: float) -> Optional[np.ndarray]:
    """G of the certificate is_sos accepts at a breakpoint of the order, read-only.

    ``side`` -1 names the breakpoint u0 of the c = -1 branch and +1 the
    breakpoint v0 of the c = +1 branch; the point is (l(u0, -1), u0, -1)
    or (l(v0, 1), v0, 1), with l the linear threshold, in floats, as a
    table row at that breakpoint asks. None when is_sos does not answer
    "yes" there.
    """
    from circulant3 import boundary

    u = boundary.breakpoint_u0_formula(m) if side < 0 else boundary.breakpoint_v0_formula(m)
    t = make_tensor(m, float(boundary._linear(m, u, side)), float(u), float(side))
    try:
        ok, cert = is_sos(t, sos_tol)
    except SosUndecided:
        return None
    if not ok:
        return None
    G = np.array(cert.G)
    G.flags.writeable = False
    return G


def _cone_certificate(
    m: int, u: Scalar, c: Scalar, n: Scalar, sos_tol: float
) -> Optional[GramCertificate]:
    """A certificate at d = n combined from the order's two breakpoint certificates, or None.

    The form and its Gram constraints are linear in (d, u, c), and so is
    the linear threshold l. So where (u, c) = alpha (u0, -1) + beta (v0, 1)
    with alpha, beta >= 0, the cone K between the two breakpoint rays,
    alpha G_a + beta G_b is a Gram matrix of the form at d = l(u, c), with
    G_a and G_b the certificates at the breakpoints (_breakpoint_gram).
    K holds every point of the nonpositive quadrant and of the two linear
    branches, where N = l. alpha and beta are exact; the combination is
    checked, as every certificate is, against the point's own Gram
    problem at d = n and theta. None off K, without both breakpoint
    certificates, or when the check fails.
    """
    from circulant3 import boundary

    u0, v0 = boundary.breakpoint_u0_formula(m), boundary.breakpoint_v0_formula(m)
    alpha = (Fraction(u) - Fraction(c) * v0) / (u0 + v0)
    beta = Fraction(c) + alpha
    if alpha < 0 or beta < 0:
        return None
    G_a, G_b = _breakpoint_gram(m, -1, sos_tol), _breakpoint_gram(m, 1, sos_tol)
    if G_a is None or G_b is None:
        return None
    # a zero weight adds nothing, not the -0.0 of 0.0 times a negative entry;
    # near the float range the check could not symmetrize G as (G + G') / 2
    with np.errstate(over="ignore", invalid="ignore"):
        G = sum((float(w) * G_w for w, G_w in ((alpha, G_a), (beta, G_b)) if w),
                np.zeros_like(G_a))
        if not math.isfinite(2.0 * float(np.max(np.abs(G)))):
            return None
    problem = _gram_problem_of(make_tensor(m, float(n), float(u), float(c)))
    cert, ok, _ = _certify(m, problem, G, sos_tol)
    return cert if ok else None


def _threshold(
    m: int,
    u: Scalar,
    c: Scalar,
    n: Scalar,
    exact: bool,
    cfg: SolverConfig,
) -> Threshold:
    """M from the PSD threshold n, with the certificate accepted at d = M.

    Where (u, c) lies in the cone K of the two breakpoint rays, the
    nonpositive quadrant and the linear branches, the certificate at
    d = n is first combined from the order's two cached breakpoint
    certificates (_cone_certificate), and M = n when it passes the
    point's own check. Otherwise, or when it fails: ``exact`` marks n as
    a closed form that M equals, which one SDP solve verifies; without
    it is_sos decides at d = n itself, and without a certificate there M
    is bisected upward from n to within ``cfg.tol_d``. Every decision
    and check is at ``cfg.sos_tol``.
    """
    cert = _cone_certificate(m, u, c, n, cfg.sos_tol)
    if cert is not None:
        return Threshold(n, cert)
    lo, uf, cf = float(n), float(u), float(c)
    try:
        ok, cert = is_sos(make_tensor(m, lo, uf, cf), cfg.sos_tol)
    except SosUndecided as exc:
        if exact:
            raise
        # the solver cannot separate the lower end from the threshold,
        # which is the best locatable answer
        return Threshold(n, None, f"at the PSD threshold d = {lo!r}: {exc}")
    if ok:
        # the PSD threshold is already SOS: the two thresholds coincide
        return Threshold(n, cert)
    if exact:
        raise RuntimeError(
            f"closed-form SOS threshold {n} rejected by the SDP at "
            f"(m={m}, u={u}, c={c}); solver and theory disagree"
        )
    hi = float(dd_bound(m, u, c))
    ok, cert = is_sos(make_tensor(m, hi, uf, cf), cfg.sos_tol)
    if not ok:
        raise RuntimeError(
            f"diagonally dominated tensor rejected by the SDP at "
            f"(m={m}, d={hi}, u={u}, c={c}); solver defect"
        )
    while hi - lo > cfg.tol_d:
        mid = 0.5 * (lo + hi)
        try:
            ok, mid_cert = is_sos(make_tensor(m, mid, uf, cf), cfg.sos_tol)
        except SosUndecided as exc:
            # the solver cannot separate mid from the threshold; no
            # further bisection step can sharpen the answer
            return Threshold(mid, None, f"at the bisection midpoint d = {mid!r}: {exc}")
        if ok:
            hi, cert = mid, mid_cert
        else:
            lo = mid
    return Threshold(hi, cert)


def _guarded_threshold(m: int, u: Scalar, c: Scalar, cfg: SolverConfig) -> Threshold:
    """_threshold from boundary.n_value."""
    from circulant3 import boundary

    n = boundary.n_value(m, u, c, cfg)
    return _threshold(m, u, c, n.value, n.tag in boundary.SOS_EXACT_TAGS, cfg)


@dataclass(frozen=True)
class CertificateBundle:
    """Per-point certification that the SOS and PSD thresholds coincide.

    CONFIRMED requires all three pieces: the threshold value, a Gram
    certificate just above it, and a unit vector where the threshold
    form nearly vanishes (so the diagonal entry cannot be decreased
    without losing PSD, squeezing the two thresholds together).
    """

    m: int
    u: float
    c: float
    critical_value: float
    certificate: Optional[GramCertificate]
    minimizer: Optional[Tuple[float, float, float]]
    minimizer_value: Optional[float]
    minimizer_residual: Optional[float]
    status: str
    tol_d: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "c": self.c,
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json_dict(),
            "critical_value": self.critical_value,
            "m": self.m,
            "minimizer": None if self.minimizer is None else list(self.minimizer),
            "minimizer_residual": self.minimizer_residual,
            "minimizer_value": self.minimizer_value,
            "seed": self.seed,
            "status": self.status,
            "tol_d": self.tol_d,
            "u": self.u,
        }


def certify_pns_free(
    m: int, u: Scalar, c: Scalar, cfg: SolverConfig = DEFAULT_CONFIG
) -> CertificateBundle:
    """Assemble the three-piece evidence bundle at one parameter point.

    Pieces: the SOS threshold; a Gram certificate at d = threshold +
    tol_d (the one is_sos accepted at the threshold, shifted by tol_d)
    that passes the independent check at is_sos's theta; and a minimizer
    of the form at d = threshold with value at most 10 * tol_d. All three
    present -> CONFIRMED; a missing or failed piece -> UNCONFIRMED with
    the evidence that does exist. M comes as in m_value, the minimizer
    from the two-equal-coordinate scan (eigen._scan_min) at d = M;
    tol_d and theta's sos_tol are ``cfg``'s.
    """
    M, cert, _ = _guarded_threshold(m, u, c, cfg)
    return _bundle(m, u, c, M, cert, cfg)


def _bundle(
    m: int,
    u: Scalar,
    c: Scalar,
    M: Scalar,
    cert: Optional[GramCertificate],
    cfg: SolverConfig,
) -> CertificateBundle:
    """The bundle at the SOS threshold M and the certificate is_sos accepted there."""
    Mf, tol_d = float(M), cfg.tol_d

    cert_ok = False
    if cert is not None:
        # tol_d on the three pure-power diagonal entries makes G an exact
        # Gram matrix of f + tol_d * (x1^m + x2^m + x3^m), the form at M + tol_d
        problem = build_gram_problem(make_tensor(m, Mf + tol_d, float(u), float(c)).to_form())
        k = cert.basis.k
        G = cert.G.copy()
        for e in ((k, 0, 0), (0, k, 0), (0, 0, k)):
            G[cert.basis.index(e), cert.basis.index(e)] += tol_d
        cert, cert_ok, _ = _certify(m, problem, G, cfg.sos_tol)

    try:
        eig = _scan_min(make_tensor(m, Mf, float(u), float(c)), cfg)
    except SolverFailure:
        eig = None
    min_ok = eig is not None and eig.lam <= 10.0 * tol_d

    status = "CONFIRMED" if (cert_ok and min_ok) else "UNCONFIRMED"
    return CertificateBundle(
        m=m,
        u=float(u),
        c=float(c),
        critical_value=Mf,
        certificate=cert,
        minimizer=None if eig is None else eig.x,
        minimizer_value=None if eig is None else eig.lam,
        minimizer_residual=None if eig is None else eig.residual,
        status=status,
        tol_d=tol_d,
        seed=cfg.seed,
    )
