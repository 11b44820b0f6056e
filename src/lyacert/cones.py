"""Positive cones, dual cones, order units and positivity of linear maps.

Three closed proper cone variants: the nonnegative orthant on R^n, the
positive semidefinite cone on Sym(n), and polyhedral cones given by
generators.  Orthant and PSD cones are self-dual and generating; a
polyhedral cone's dual need not be generating, so it has no
positive/negative decomposition.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf

from .exceptions import (
    DimensionError,
    InternalInconsistencyError,
    InvalidOrderUnitError,
    UnsupportedConeOperation,
)
from .linalg import (
    _lp_norms,
    as_matrix,
    as_square,
    as_vector,
    check_symmetric,
    spectrum_is_psd,
    sym_dim,
    sym_index,
    sym_to_vec,
    vec_to_sym,
    vector_norm,
)

__all__ = [
    "ConeSpec",
    "CongruenceMap",
    "ConeMapResult",
    "cone_contains",
    "dual_cone_contains",
    "decompose_pm",
    "is_order_unit",
    "order_unit_norm",
    "map_preserves_cone",
]

ORTHANT = "orthant"
PSD = "psd"
POLYHEDRAL = "polyhedral"

#: slack, relative to max(1, ||x||), within which x counts as in the cone
MEMBERSHIP_TOL = 1e-10
#: margin by which an order unit must lie inside the cone
ORDER_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class ConeSpec:
    """Descriptor of a closed proper cone.

    kind is "orthant" (elements: vectors in R^dim), "psd" (elements:
    symmetric dim x dim matrices, ambient dimension dim*(dim+1)/2) or
    "polyhedral" (elements: vectors; generators stored as columns).
    """

    kind: str
    dim: int
    generators: Optional[np.ndarray] = field(default=None, compare=False)

    @staticmethod
    def orthant(dim):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        return ConeSpec(kind=ORTHANT, dim=dim)

    @staticmethod
    def psd(n):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return ConeSpec(kind=PSD, dim=n)

    @staticmethod
    def polyhedral(generators):
        G = as_matrix(generators, "generators")
        if G.shape[1] < 1:
            raise ValueError("need at least one generator")
        norms = _lp_norms(G, 2.0)
        if np.any(norms <= 0):
            raise ValueError("zero generator")
        # properness: the cone must not contain a line, i.e. no -g_j may be
        # a nonnegative combination of the generators
        # imported here, not at module level: it costs about 0.3 s at start-up
        # and only polyhedral cones use it
        import scipy.optimize

        for j in range(G.shape[1]):
            _, resid = scipy.optimize.nnls(G, -G[:, j])
            if resid <= 1e-10 * norms[j]:
                raise ValueError(
                    f"generators span a line: -g_{j} lies in the cone"
                )
        return ConeSpec(kind=POLYHEDRAL, dim=G.shape[0], generators=G)

    @property
    def ambient_dim(self):
        """Dimension of the coordinate vector carrying an element."""
        return sym_dim(self.dim) if self.kind == PSD else self.dim


def _element(cone, x):
    """Validate x against the cone's ambient space; PSD elements come in as
    symmetric matrices (or their Sym(n) coordinates)."""
    if cone.kind == PSD:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            return vec_to_sym(arr, cone.dim)
        m = check_symmetric(arr, "element")
        if m.shape[0] != cone.dim:
            raise DimensionError(
                f"element must be {cone.dim} x {cone.dim}, got {m.shape}"
            )
        return m
    return as_vector(x, cone.dim, "element")


def _scaled_tol(x):
    return MEMBERSHIP_TOL * max(1.0, vector_norm(x, 2))


def cone_contains(cone, x):
    """Membership test with slack MEMBERSHIP_TOL * max(1, ||x||).

    Orthant: all entries >= -slack.  PSD: lambda_min >= -slack.
    Polyhedral: nonnegative-least-squares distance to the generator cone
    <= slack.
    """
    x = _element(cone, x)
    if cone.kind == ORTHANT:
        return bool(np.min(x) >= -_scaled_tol(x))
    if cone.kind == PSD:
        return spectrum_is_psd(np.linalg.eigvalsh(x), MEMBERSHIP_TOL, floor=1.0)
    import scipy.optimize

    _, resid = scipy.optimize.nnls(cone.generators, x)
    return resid <= _scaled_tol(x)


def dual_cone_contains(cone, phi):
    """Dual-cone membership: orthant and PSD are self-dual; a polyhedral
    dual functional must pair nonnegatively with every generator, down to
    -MEMBERSHIP_TOL * ||g||."""
    if cone.kind in (ORTHANT, PSD):
        return cone_contains(cone, phi)
    phi = as_vector(phi, cone.dim, "functional")
    G = cone.generators
    return bool(np.all(phi @ G >= -MEMBERSHIP_TOL * _lp_norms(G, 2.0)))


def decompose_pm(cone, phi):
    """Split phi = phi_plus - phi_minus with both parts in the dual cone.

    Orthant: entrywise positive/negative parts.  PSD: spectral split by
    eigenvalue sign.  Polyhedral duals need not be generating, so the
    operation is unsupported there.
    """
    if cone.kind == ORTHANT:
        phi = as_vector(phi, cone.dim, "functional")
        return np.maximum(phi, 0.0), np.maximum(-phi, 0.0)
    if cone.kind == PSD:
        phi = _element(cone, phi)
        lam, U = np.linalg.eigh(phi)
        pos = (U * np.maximum(lam, 0.0)) @ U.T
        neg = (U * np.maximum(-lam, 0.0)) @ U.T
        return 0.5 * (pos + pos.T), 0.5 * (neg + neg.T)
    raise UnsupportedConeOperation(
        "positive/negative decomposition is only available for orthant and "
        "PSD cones"
    )


def is_order_unit(cone, e):
    """Interior test: does e admit -lambda*e <= x <= lambda*e for all x?

    Orthant: min entry >= ORDER_UNIT_TOL.  PSD: lambda_min(e) >=
    ORDER_UNIT_TOL.  Polyhedral: cone_contains holds on the 2n vertices
    e +- r u_i, r = ORDER_UNIT_TOL * max(1, ||e||), so the cone holds their
    cross-polytope (which forces spanning generators and e in the cone).
    A boundary or outside e has a vertex at distance >= r / sqrt(n) from
    the cone, beyond the membership slack of about r / 10: exact for n < 100.
    """
    e = _element(cone, e)
    if cone.kind == ORTHANT:
        return bool(np.min(e) >= ORDER_UNIT_TOL)
    if cone.kind == PSD:
        return float(np.linalg.eigvalsh(e)[0]) >= ORDER_UNIT_TOL
    r = ORDER_UNIT_TOL * max(1.0, vector_norm(e, 2))
    steps = np.vstack([r * np.eye(cone.dim), -r * np.eye(cone.dim)])
    return all(cone_contains(cone, e + d) for d in steps)


def order_unit_norm(cone, e, x):
    """||x||_e = inf{lambda > 0 : -lambda e <= x <= lambda e}.

    Orthant: max_i |x_i| / e_i.  PSD with unit e = I: largest absolute
    eigenvalue of x.  General PSD e: largest absolute eigenvalue of
    e^{-1/2} x e^{-1/2}.  Simplicial polyhedral (square generator matrix
    G, nonsingular once e is an order unit): the orthant formula in the
    generator basis, max_i |(G^{-1} x)_i| / (G^{-1} e)_i.  Other
    polyhedral cones: bisection on cone membership, after doubling from 1
    up to ||x||_1 / r, which fits by is_order_unit's check.
    Raises InvalidOrderUnitError unless is_order_unit(cone, e), so a
    polyhedral e on the cone's boundary is refused.
    """
    if not is_order_unit(cone, e):
        raise InvalidOrderUnitError("e is not an order unit of the cone")
    e = _element(cone, e)
    x = _element(cone, x)
    if cone.kind == ORTHANT:
        return float(np.max(np.abs(x) / e))
    if cone.kind == PSD:
        lam_e, U = np.linalg.eigh(e)
        inv_sqrt = (U / np.sqrt(lam_e)) @ U.T
        w = np.linalg.eigvalsh(inv_sqrt @ x @ inv_sqrt)
        return float(np.max(np.abs(w)))
    G = cone.generators
    if G.shape[0] == G.shape[1]:
        coords = np.linalg.solve(G, np.column_stack([x, e]))
        if np.any(coords[:, 1] <= 0.0):  # is_order_unit is exact for n < 100 only
            raise InvalidOrderUnitError(
                "e is not an order unit of the cone: a generator coordinate "
                f"of e is {float(coords[:, 1].min()):.3e}")
        return float(np.max(np.abs(coords[:, 0]) / coords[:, 1]))
    if not x.any():
        return 0.0

    def fits(lam):
        return cone_contains(cone, lam * e - x) and cone_contains(cone, lam * e + x)

    # is_order_unit put the l_1 ball of radius r around e in the cone
    r = ORDER_UNIT_TOL * max(1.0, vector_norm(e, 2))
    hi, bound = 1.0, float(np.abs(x).sum()) / r  # every lambda >= bound fits
    while not fits(hi):
        if hi >= bound:
            raise InternalInconsistencyError(
                f"order unit e does not dominate x at lambda = {hi:.6e}")
        hi = min(2.0 * hi, bound)
    lo = 0.0
    while hi - lo > 1e-12 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class CongruenceMap:
    """The map P -> M' P M on Sym(n), which preserves the PSD cone by form."""

    M: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M", as_square(self.M, "M"))

    def apply(self, P):
        P = check_symmetric(P, "P")
        out = self.M.T @ P @ self.M
        return 0.5 * (out + out.T)

    def matrix(self):
        """Representation on orthonormal Sym(n) coordinates: column k holds
        the coordinates of the image of the k-th basis element."""
        n = self.M.shape[0]
        return np.column_stack(
            [sym_to_vec(self.apply(vec_to_sym(e, n))) for e in np.eye(sym_dim(n))]
        )


class ConeMapResult(NamedTuple):
    """Outcome of a cone-preservation check; witness is a violating element
    (None when no counterexample was found)."""

    preserves: bool
    witness: Optional[np.ndarray]


def map_preserves_cone(cone, map_):
    """Does the linear map send the cone into itself?

    Orthant and polyhedral maps are decided exactly on the generators (the
    unit vectors for the orthant): M keeps cone(G) iff M g lies in the cone
    for every generator column g, and the witness is the first g that
    fails.  On the PSD cone, congruence maps P -> M'PM are decided by form
    (pass a CongruenceMap); any other map is tested on the n^2 rays vv',
    v in {e_i, e_i +- e_j}: an image Y passes when Y + MEMBERSHIP_TOL *
    max(1, ||Y||_F) I has a Cholesky factor, the witness is the first ray
    that fails, and True means "no ray fails" (necessary; no sampling).
    """
    if isinstance(map_, CongruenceMap):
        if cone.kind != PSD:
            raise UnsupportedConeOperation("congruence maps act on the PSD cone")
        return ConeMapResult(preserves=True, witness=None)

    M = as_square(map_, "map")
    if M.shape[0] != cone.ambient_dim:
        raise DimensionError(
            f"map must act on dimension {cone.ambient_dim}, got {M.shape}"
        )
    if cone.kind != PSD:
        G = np.eye(cone.dim) if cone.kind == ORTHANT else cone.generators
        for g in G.T:
            if not cone_contains(cone, M @ g):
                return ConeMapResult(preserves=False, witness=g.copy())
        return ConeMapResult(preserves=True, witness=None)
    n, E = cone.dim, np.eye(cone.dim)
    i, j = np.triu_indices(n, 1)
    V = np.vstack([E, E[i] + E[j], E[i] - E[j]])
    # Sym(n) coordinates of the images: M e_p for the ray e_p e_p', and
    # M e_p + M e_q +- sqrt(2) M e_pq for (e_p +- e_q)(e_p +- e_q)'
    cols = M.T.copy()
    pair, off = cols[i] + cols[j], np.sqrt(2.0) * cols[n:]
    images = np.vstack([cols[:n], pair + off, pair - off])
    slack = MEMBERSHIP_TOL * np.maximum(1.0, _lp_norms(images, 2.0, axis=1))
    images[:, :n] += slack[:, None]
    images[:, n:] *= 1.0 / np.sqrt(2.0)
    for v, Y in zip(V, images[:, sym_index(n)]):  # Y.T: Fortran order, no copy
        if dpotrf(Y.T, lower=1, clean=0, overwrite_a=1)[1]:
            return ConeMapResult(preserves=False, witness=np.outer(v, v))
    return ConeMapResult(preserves=True, witness=None)
