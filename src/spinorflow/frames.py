"""Dense tensor algebra on 3D/4D orthonormal frames.

Everything here works with frame components only: the 3D frame labels are
(u, l, n) = (0, 1, 2) and the metric in frame indices is the identity
(3D Riemannian) or diag(-1, 1, 1, 1) (4D Lorentzian).  Curvature of a
left-invariant metric then reduces to finite-dimensional algebra on the
structure constants of the orthonormal (co)frame.

``frame_ricci`` contracts the Ricci tensor straight from the connection,
Ric_bc = sum_a R^a_{abc} = sum_{a,e} (om_bc^e om_ae^a - om_ac^e om_be^a
- c^e_ab om_ec^a), plus the derivative terms of a frame that changes along
X_0; it never forms the rank-4 Riemann tensor.

``structure_constants_from_theta``, ``levi_civita``, ``frame_ricci`` and
``divergence_sym`` take optional leading axes, one sample per index, and
evaluate a stack in one pass; scalar calls are unchanged.  Their einsum
subscripts and transposes name every axis (no ``...``, no
``np.moveaxis``), which keeps the overhead of a single sample small, and
every sample of a stack gets the same floating-point operations in the
same order as a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Frame label order used by every 3x3 array in the package.
U, L, N = 0, 1, 2

# entry (a, b) of a symmetric 3x3 matrix in the components (uu, ul, un, ll, ln, nn)
_SYM_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
# and the reverse: where each component sits in a 3x3 matrix flattened row by row
_SYM_FLAT = np.array([0, 1, 2, 4, 5, 8])

# einsum labels of the leading (sample) axes of a stack
_LEAD = "zyxwv"


@dataclass(frozen=True)
class Sym3:
    """Symmetric two-tensor in the (u, l, n) frame; upper-triangle storage."""

    uu: float = 0.0
    ul: float = 0.0
    un: float = 0.0
    ll: float = 0.0
    ln: float = 0.0
    nn: float = 0.0

    def as_matrix(self) -> np.ndarray:
        return self.as_array()[_SYM_INDEX]

    @classmethod
    def from_matrix(cls, m) -> "Sym3":
        """The upper triangle of the 3x3 matrix ``m``."""
        return cls(*np.asarray(m, dtype=float).ravel()[_SYM_FLAT])

    def as_array(self) -> np.ndarray:
        """Components in the fixed order (uu, ul, un, ll, ln, nn)."""
        return np.array([self.uu, self.ul, self.un, self.ll, self.ln, self.nn])

    @classmethod
    def from_array(cls, a) -> "Sym3":
        return cls(*(float(x) for x in a))

    def max_abs(self) -> float:
        return float(max(abs(x) for x in self.as_array()))



@dataclass(frozen=True)
class EigenData2:
    """Ordered orthogonal diagonalization of a symmetric 2x2 matrix."""

    rho_plus: float
    rho_minus: float
    Q: np.ndarray  # 2x2, orthogonal, det = +1


def eigen2x2(theta2) -> EigenData2:
    """Diagonalize a symmetric 2x2 matrix with deterministic conventions.

    Returns eigenvalues in decreasing order and a rotation Q (det = +1) with
    Q @ diag(rho_plus, rho_minus) @ Q.T equal to the input.  Tie-breaking:
    diagonal input with ordered entries (and the degenerate case) yields
    Q = Id; otherwise the first column's first nonzero entry is positive.
    """
    m = np.asarray(theta2, dtype=float)
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    scale = max(abs(a), abs(b), abs(c), 1.0)
    half_tr = 0.5 * (a + c)
    # discriminant sqrt((a-c)^2/4 + b^2) is always real for symmetric input
    disc = np.hypot(0.5 * (a - c), b)
    rho_p = half_tr + disc
    rho_m = half_tr - disc

    if abs(b) <= 1e-15 * scale:
        if a >= c:
            Q = np.eye(2)
        else:
            # swap with a rotation by pi/2 to keep det = +1
            Q = np.array([[0.0, -1.0], [1.0, 0.0]])
        return EigenData2(rho_plus=rho_p, rho_minus=rho_m, Q=Q)

    # the rho_plus eigenspace is the range of (m - rho_minus * Id); taking
    # the larger column avoids cancellation when b is tiny
    col1 = np.array([a - rho_m, b])
    col2 = np.array([b, c - rho_m])
    v = col1 if np.linalg.norm(col1) >= np.linalg.norm(col2) else col2
    v = v / np.linalg.norm(v)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = -v
    Q = np.array([[v[0], -v[1]], [v[1], v[0]]])
    return EigenData2(rho_plus=rho_p, rho_minus=rho_m, Q=Q)


def sym_matrices(theta) -> np.ndarray:
    """The matrix of a Sym3, or the stack of matrices of an array of
    components (uu, ul, un, ll, ln, nn) on its last axis, C-contiguous as
    ``as_matrix`` makes each: matmul rounds a strided stack differently."""
    if isinstance(theta, Sym3):
        return theta.as_matrix()
    return np.ascontiguousarray(np.asarray(theta, dtype=float)[..., _SYM_INDEX])


def structure_constants_from_theta(theta) -> np.ndarray:
    """Structure constants c[a][b][c] of the coframe induced by a shape tensor.

    The coframe differential system d e_a = Theta_ab e_b ^ e_u translates into
    brackets [x_u, x_b] = Theta_ab x_a for spatial b, i.e. the only nonzero
    constants are c^a_{ub} = -c^a_{bu} = Theta_ab with b in (l, n).  ``theta``
    is a Sym3, or an array of components with leading axes (``sym_matrices``);
    the constants then carry the same leading axes.
    """
    th = sym_matrices(theta)
    c = np.zeros(th.shape[:-2] + (3, 3, 3))
    c[..., :, U, L:] = th[..., :, L:]
    c[..., :, L:, U] = -th[..., :, L:]
    return c


def levi_civita(c: np.ndarray) -> np.ndarray:
    """Connection coefficients om[a][b][d] = <nabla_{x_a} x_b, x_d>.

    Koszul formula for left-invariant fields on an orthonormal frame:
    om[a][b][d] = (c_{ab,d} - c_{bd,a} + c_{da,b}) / 2 with c_{ab,d} = c^d_{ab}.
    Antisymmetric in (b, d) and torsion-free by construction.  Optional
    leading axes of ``c`` carry over to the result.
    """
    k = c.ndim - 3
    lead = tuple(range(k))
    low = c.transpose(lead + (k + 1, k + 2, k))  # low[a][b][d] = c^d_{ab}
    # transpose (2,0,1) reads c_{bd,a}, transpose (1,2,0) reads c_{da,b}
    return 0.5 * (low - low.transpose(lead + (k + 2, k, k + 1))
                  + low.transpose(lead + (k + 1, k + 2, k)))


def frame_ricci(eta: np.ndarray, c: np.ndarray, dc0: np.ndarray | None = None):
    """Ricci tensor in an orthonormal frame with diagonal metric ``eta``.

    ``c[a][b][d] = c^a_{bd}`` are the structure functions of the frame; when
    they depend on time through the frame direction 0, ``dc0`` must hold their
    derivative along the unit vector X_0 and the curvature picks up the
    corresponding derivative terms of the connection.  Components of tensors
    are otherwise constant along the frame.

    Optional leading axes; scalar calls unchanged.  ``c`` and ``dc0`` may
    carry leading axes, one sample per index: the Ricci tensors then carry
    them too, and the scalar is an array of that shape instead of a float.
    Each sample gets the operations, in the order, of a call of its own.

    Only the traced components of the Riemann tensor are formed.  With
    ``om[a][b][e]`` the connection, nabla_{X_a} X_b = om_ab^e X_e,

        Ric_bc = sum_a ( om_bc^e om_ae^a - om_ac^e om_be^a - c^e_ab om_ec^a
                         + delta_a0 X_0(om_bc^a) - delta_b0 X_0(om_ac^a) ),

    summed over e, the derivative terms only with ``dc0``.  For constant
    structure constants this is the left-invariant Ricci formula (Milnor,
    Adv. Math. 21 (1976); Besse, Einstein Manifolds, 7.38) written in the
    connection.  Each entry takes the floating-point operations, in the
    order, that tracing the full Riemann tensor takes, so the results match
    that trace bit for bit.

    Returns (ricci, scalar) with all indices down.
    """
    eta = np.asarray(eta, dtype=float)
    k = c.ndim - 3
    p = _LEAD[:k]

    # omega_{a b d} = <nabla_a X_b, X_d>, indices all down: the Koszul
    # formula on the structure functions with their upper index lowered
    om_low = levi_civita(eta[:, None, None] * c)
    inv = np.diag(1.0 / eta)
    # om[a][b][e]: nabla_a X_b = om X_e
    om = np.einsum(f"{p}abd,de->{p}abe", om_low, inv)

    # r[a][b][c] = R^a_{abc}, the component on X_a of
    # R(X_a, X_b) X_c = nabla_a nabla_b X_c - nabla_b nabla_a X_c - nabla_[a,b] X_c:
    # the only entries of the Riemann tensor that the trace reads
    r = (np.einsum(f"{p}bce,{p}aea->{p}abc", om, om)
         - np.einsum(f"{p}ace,{p}bea->{p}abc", om, om))
    r -= np.einsum(f"{p}eab,{p}eca->{p}abc", c, om)

    if dc0 is not None:
        # X_0(om_bc^e) enters R(X_0, X_b) X_c and, negated, R(X_a, X_0) X_c
        dom0 = np.einsum(f"{p}abd,de->{p}abe", levi_civita(eta[:, None, None] * dc0), inv)
        deriv = np.zeros_like(r)
        deriv[..., 0, :, :] += dom0[..., :, :, 0]
        deriv[..., :, 0, :] -= np.einsum(f"{p}aca->{p}ac", dom0)
        r += deriv

    # Ric_{bc} = sum_a R^a_{a b c}
    ric = np.einsum(f"{p}abc->{p}bc", r)
    scalar = np.einsum(f"{p}bc,bc->{p}", ric, np.diag(1.0 / eta))
    return ric, (float(scalar) if k == 0 else scalar)


def ricci3(c: np.ndarray) -> tuple[Sym3, float]:
    """Ricci tensor and scalar curvature of the 3D left-invariant metric.

    One sample only: ``c`` is 3x3x3.  A stack goes to ``frame_ricci``, whose
    Ricci tensors carry the leading axes (``ric.T`` here would mix them).
    """
    c = np.asarray(c)
    if c.shape != (3, 3, 3):
        raise ValueError(f"ricci3 takes the 3x3x3 structure constants of one sample, "
                         f"not shape {c.shape}; evaluate a stack with frame_ricci")
    ric, scal = frame_ricci(np.ones(3), c)
    return Sym3.from_matrix(0.5 * (ric + ric.T)), scal


def divergence_sym(c: np.ndarray, s) -> np.ndarray:
    """Frame components of div_h S for a constant-component symmetric S.

    (div S)_b = sum_a (nabla_a S)(x_a, x_b); for constant components the
    covariant derivative is pure connection contraction.  Optional leading
    axes: ``c`` may carry them, one sample per index, with ``s`` an array of
    components on the same leading axes (``sym_matrices``); the divergences
    then carry them too.  Scalar calls, with ``s`` a Sym3, are unchanged.
    """
    p = _LEAD[:c.ndim - 3]
    om = levi_civita(c)
    sm = sym_matrices(s)
    return (-np.einsum(f"{p}aae,{p}eb->{p}b", om, sm)
            - np.einsum(f"{p}abe,{p}ae->{p}b", om, sm))
