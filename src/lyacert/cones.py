"""Positive cones, dual cones, order units and positivity of linear maps.

Three closed proper cone variants: the nonnegative orthant on R^n, the
positive semidefinite cone on Sym(n), and polyhedral cones given by
generators.  Orthant and PSD cones are self-dual and generating; polyhedral
cones support membership and duality only.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import (
    DimensionError,
    InvalidOrderUnitError,
    UnsupportedConeOperation,
)
from .linalg import (
    as_matrix,
    as_square,
    as_vector,
    check_symmetric,
    spectrum_is_psd,
    sym_dim,
    sym_to_vec,
    vec_to_sym,
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
#: cone elements sampled, and their seed, when map_preserves_cone tests a
#: matrix on a PSD or polyhedral cone
MAP_SAMPLES = 32
MAP_SEED = 0


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
        norms = np.linalg.norm(G, axis=0)
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
    return MEMBERSHIP_TOL * max(1.0, float(np.linalg.norm(np.ravel(x))))


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
    for j in range(G.shape[1]):
        g = G[:, j]
        if float(phi @ g) < -MEMBERSHIP_TOL * float(np.linalg.norm(g)):
            return False
    return True


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
    ORDER_UNIT_TOL.  Polyhedral: generators span the space and a
    cross-polytope around e of radius proportional to ORDER_UNIT_TOL stays
    inside the cone (per-direction LPs).
    """
    e = _element(cone, e)
    if cone.kind == ORTHANT:
        return bool(np.min(e) >= ORDER_UNIT_TOL)
    if cone.kind == PSD:
        return float(np.linalg.eigvalsh(e)[0]) >= ORDER_UNIT_TOL
    G = cone.generators
    if np.linalg.matrix_rank(G) < cone.dim:
        return False
    if not cone_contains(cone, e):
        return False
    import scipy.optimize

    radius = ORDER_UNIT_TOL * max(1.0, float(np.linalg.norm(e)))
    n, k = G.shape
    for i in range(n):
        for sign in (1.0, -1.0):
            u = np.zeros(n)
            u[i] = sign
            # max eps s.t. G w + eps u = e, w >= 0; eps capped at twice the
            # required radius so the LP is always bounded
            c = np.zeros(k + 1)
            c[-1] = -1.0
            A_eq = np.hstack([G, u[:, None]])
            res = scipy.optimize.linprog(
                c, A_eq=A_eq, b_eq=e,
                bounds=[(0, None)] * k + [(0, 2.0 * radius)],
                method="highs",
            )
            if not res.success or -res.fun < radius:
                return False
    return True


def order_unit_norm(cone, e, x):
    """||x||_e = inf{lambda > 0 : -lambda e <= x <= lambda e}.

    Orthant: max_i |x_i| / e_i.  PSD with unit e = I: largest absolute
    eigenvalue of x.  General PSD e: largest absolute eigenvalue of
    e^{-1/2} x e^{-1/2}.  Polyhedral: bisection on cone membership.
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
    return _order_unit_norm_bisect(cone, e, x)


def _order_unit_norm_bisect(cone, e, x):
    def fits(lam):
        return cone_contains(cone, lam * e - x) and cone_contains(cone, lam * e + x)

    if float(np.linalg.norm(x)) == 0.0:
        return 0.0
    hi = 1.0
    while not fits(hi):
        hi *= 2.0
        if hi > 1e18:
            raise InvalidOrderUnitError("element not dominated by any multiple of e")
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


def _sample_cone_element(cone, rng):
    if cone.kind == ORTHANT:
        return rng.exponential(size=cone.dim)
    if cone.kind == PSD:
        B = rng.standard_normal((cone.dim, cone.dim))
        return B @ B.T
    w = rng.exponential(size=cone.generators.shape[1])
    return cone.generators @ w


def map_preserves_cone(cone, map_):
    """Does the linear map send the cone into itself?

    Orthant maps are decided exactly (all entries >= -MEMBERSHIP_TOL
    * max(1, max |M_ij|)).  On the PSD cone, only congruence maps
    P -> M'PM are decidable by form (pass a CongruenceMap); any other map
    is falsified on MAP_SAMPLES cone elements drawn with seed MAP_SEED,
    where True means "no counterexample found".
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
    if cone.kind == ORTHANT:
        bad = np.argwhere(M < -MEMBERSHIP_TOL * max(1.0, float(np.abs(M).max())))
        if bad.size:
            j = int(bad[0][1])
            witness = np.zeros(cone.dim)
            witness[j] = 1.0
            return ConeMapResult(preserves=False, witness=witness)
        return ConeMapResult(preserves=True, witness=None)
    rng = np.random.default_rng(MAP_SEED)
    for _ in range(MAP_SAMPLES):
        x = _sample_cone_element(cone, rng)
        coords = sym_to_vec(x) if cone.kind == PSD else x
        image = M @ coords
        element = vec_to_sym(image, cone.dim) if cone.kind == PSD else image
        if not cone_contains(cone, element):
            return ConeMapResult(preserves=False, witness=x)
    return ConeMapResult(preserves=True, witness=None)
