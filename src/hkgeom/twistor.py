"""Twistor charts of flat quaternionic space and their line-bundle data.

The twistor space of flat H^n is the total space of C^{2n}(1) over the
projective line.  It carries two coordinate charts

    U: (v, xi, zeta)         with zeta != infinity,
    V: (vt, xit, zetat)      with zeta != 0,

glued by (vt, xit, zetat) = (v/zeta, xi/zeta, 1/zeta), and is identified
with the smooth product (flat space) x (sphere) by

    (z, w, zeta) |-> (z + zeta*conj(w), w - zeta*conj(z), zeta).

This module provides exact evaluators for the chart transition, the
holomorphic transition function of the invariant line bundle, the local
connection pair of the half-rotation action, the meromorphic connection
of the weighted rotation (with its logarithmic term), its curvature, and
the hermitian metric of the bundle, together with contour-quadrature
residue and pole-order measurements.

Every closed form takes a batch of k points and returns one value per
row, a (k,) array for a residual:

* chart points are v, xi of shape (k, n) and zeta of shape (k,), complex;
  smooth-product points are z, w of shape (k, n) with the same zeta;
* chart tangents are one packed complex (k, 2n+1) array in the coframe
  order (dv, dxi, dzeta) of ``fz_coefficients``; a tangent of any other
  shape raises ConfigError;
* real flat tangents are (k, 4n) and real twistor tangents (k, 4n+2).

A row of a batch equals the same point evaluated as a batch of one, bit
for bit.

F_Z is one coefficient matrix, ``fz_coefficients``.  On vertical tangents it
is (-2i) times the pencil (omega2 + i omega3)/(2 i zeta) + omega1 +
zeta (omega2 - i omega3)/(2i), as ``fibre_restriction_residual`` derives.

Conventions fixed by measurement (see the module tests):

* the lift of the weight-(k, l) rotation is V = i(k*v, l*xi, (k+l)*zeta),
  so the projection to the sphere is degree * (i zeta d/dzeta);
* the fibre-direction residue at zeta = 0 equals (-1) times
  i_X(omega2 + i omega3)/2i for the full-rotation field X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, StructureError
from .flatspace import CircleActionSpec, FlatModel, action_vector_field
from .forms import (
    FDScheme,
    FormField,
    ScalarField,
    _as_matrices,
    _pair_indices,
    ddc,
    ext_deriv,
)

CONTOUR_RADIUS = 1e-2
CONTOUR_NODES = 64
#: pole_order looks for poles up to this order, and counts a Laurent
#: coefficient as present above this fraction of the largest sample
_POLE_MAX_ORDER = 4
_POLE_REL_TOL = 1e-8
#: fibre weight of the connection whose residue fibre_residue measures; its
#: tangents have dzeta = 0, so the weight's term 2 pi i n dzeta/zeta vanishes
_FIBRE_WEIGHT = 2

_DDC_OUTER = FDScheme(h=2e-3, order=4)
_DDC_INNER = FDScheme(h=1e-4, order=4)
_CLOSEDNESS_SCHEME = FDScheme(h=1e-3, order=4)


def _zeta(zeta, message: str) -> np.ndarray:
    """zeta as a complex array; DomainError(message) if an entry is 0."""
    zeta = np.asarray(zeta, dtype=complex)
    if np.any(zeta == 0):
        raise DomainError(message)
    return zeta


def _tangent(tangent, v) -> np.ndarray:
    """Chart tangents as a complex (k, 2n+1) array at the (k, n) points v.

    Any other shape raises ConfigError naming the expected length.
    """
    tangent = np.asarray(tangent, dtype=complex)
    k, n = np.shape(v)
    if tangent.shape != (k, 2 * n + 1):
        raise ConfigError(
            f"chart tangents on H^{n} have length {2 * n + 1} = 2n+1 (dv, dxi, dzeta): "
            f"expected shape {(k, 2 * n + 1)}, got {tangent.shape}"
        )
    return tangent


def _split(tangent, v):
    """(dv, dxi, dzeta) of shapes (k, n), (k, n), (k,) of chart tangents at the points v."""
    tangent, n = _tangent(tangent, v), np.shape(v)[1]
    return tangent[:, :n], tangent[:, n : 2 * n], tangent[:, 2 * n]


def _pairing(s, M, t) -> np.ndarray:
    """s_r^T M t_r of each row r, from one stacked matmul; M is (m, m) or (k, m, m).

    A stacked matmul rounds each row as the same product of one row does,
    which an einsum or a row-wise sum does not.
    """
    return (s[:, None, :] @ M @ t[:, :, None])[:, 0, 0]


def _modulus(x) -> np.ndarray:
    """|x| of complex values, as hypot of the parts.

    numpy's vectorised absolute value of a complex array can differ by an
    ulp from hypot, which abs() of a Python complex uses; the residuals
    take hypot, so they round as a computation on scalars would.
    """
    return np.hypot(x.real, x.imag)


# -- charts ----------------------------------------------------------------------


def chart_transition(v, xi, zeta, tangent):
    """The chart transition and its pushforward: ((v/zeta, xi/zeta, 1/zeta), transported tangent).

    The map is its own inverse, so it takes chart-U points to chart V and
    chart-V points back.  The tangent (dv, dxi, dzeta) goes to
    (dv/zeta - v dzeta/zeta^2, dxi/zeta - xi dzeta/zeta^2, -dzeta/zeta^2).
    """
    tv, txi, tzeta = _split(tangent, v)
    zeta = _zeta(zeta, "chart transition undefined on the zeta = 0 fibre")
    z1, z2, tz = zeta[:, None], (zeta * zeta)[:, None], tzeta[:, None]
    tilde = np.concatenate([tv / z1 - v * tz / z2, txi / z1 - xi * tz / z2, -tz / z2], axis=1)
    return (v / z1, xi / z1, 1.0 / zeta), tilde


def product_to_chart(z, w, zeta):
    """Chart-U coordinates (v, xi) = (z + zeta conj(w), w - zeta conj(z)) of smooth-product points.

    zeta has the leading shape of z and w; chart U keeps it as it is.
    """
    zeta = np.asarray(zeta)[..., None]
    return z + zeta * np.conj(w), w - zeta * np.conj(z)


def vertical_lift(zeta, m_tangent) -> np.ndarray:
    """Push real flat tangents (k, 4n) to vertical chart-U tangents (k, 2n+1), dzeta = 0.

    The chart map is complex-linear in (z, w) at fixed zeta, so the lift
    is the chart map applied to the tangent.
    """
    m_tangent = np.asarray(m_tangent, dtype=float)
    tz, tw = FlatModel(m_tangent.shape[1] // 4).to_complex(m_tangent)
    tv, txi = product_to_chart(tz, tw, zeta)
    return np.concatenate([tv, txi, np.zeros((len(tv), 1))], axis=1)


# -- fibrewise symplectic pencil --------------------------------------------------


def fibre_symplectic(model: FlatModel, zeta, s, t) -> np.ndarray:
    """The quadratic symplectic pencil on real vertical tangents s, t (k, 4n), (k,).

    (omega2 + i omega3)(s,t) + 2i zeta omega1(s,t)
                             + zeta^2 (omega2 - i omega3)(s,t).
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    w1, w2, w3 = (_pairing(s, w, t) for w in model.kahler_triple())
    zeta = np.asarray(zeta, dtype=complex)
    return (w2 + 1j * w3) + 2j * zeta * w1 + zeta**2 * (w2 - 1j * w3)


# -- line-bundle transition ---------------------------------------------------------


def _half_overlap(v, xi, zeta, where: str = "zeta") -> np.ndarray:
    """sum_i v_i xi_i / 2 zeta, the exponent of the transition function."""
    zeta = _zeta(zeta, f"transition function has an essential singularity at {where} = 0")
    return np.sum(np.asarray(v) * xi, axis=-1) / (2.0 * zeta)


def transition_gUV(v, xi, zeta) -> np.ndarray:
    """Holomorphic transition function exp(-sum_i v_i xi_i / 2 zeta)."""
    return np.exp(-_half_overlap(v, xi, zeta))


def log_gUV_sq(v, xi, zeta) -> np.ndarray:
    """log |g_UV|^2 = -Re(sum_i v_i xi_i / zeta)."""
    return -2.0 * _half_overlap(v, xi, zeta).real


# -- semi-free-action connection pair --------------------------------------------------


def semifree_AU(v, xi, zeta, tangent) -> np.ndarray:
    """Chart-U connection form of the w-only rotation: (1/2 zeta) sum v_i d xi_i."""
    _, txi, _ = _split(tangent, v)
    zeta = _zeta(zeta, "connection form has a pole at zeta = 0")
    return np.sum(v * txi, axis=-1) / (2.0 * zeta)


def semifree_AV(vt, xit, zetat, tangent) -> np.ndarray:
    """Chart-V connection form: -(1/2 zetat) sum xit_i d vt_i."""
    tvt, _, _ = _split(tangent, vt)
    zetat = _zeta(zetat, "connection form has a pole at zetat = 0")
    return -np.sum(xit * tvt, axis=-1) / (2.0 * zetat)


def overlap_potential_d(v, xi, zeta, tangent) -> np.ndarray:
    """Exact differential of sum_i v_i xi_i / 2 zeta on chart-U tangents."""
    tv, txi, tzeta = _split(tangent, v)
    zeta = _zeta(zeta, "overlap potential has a pole at zeta = 0")
    return np.sum(xi * tv + v * txi, axis=-1) / (2.0 * zeta) - np.sum(
        v * xi, axis=-1
    ) * tzeta / (2.0 * zeta**2)


def connection_pair_residual(v, xi, zeta, tangent) -> np.ndarray:
    """|(A_V - A_U + d(sum v xi / 2 zeta))(tangent)| at chart-U points."""
    (vt, xit, zetat), tilde = chart_transition(v, xi, zeta, tangent)
    lhs = semifree_AV(vt, xit, zetat, tilde) - semifree_AU(v, xi, zeta, tangent)
    return _modulus(lhs + overlap_potential_d(v, xi, zeta, tangent))


# -- meromorphic connection of the weighted rotation -----------------------------------


def mero_connection(n_char: int, v, xi, zeta, tangent) -> np.ndarray:
    """The invariant meromorphic connection form on chart-U tangents.

    2 pi i n dzeta/zeta + (1/2 zeta) sum_i (xi_i dv_i - v_i dxi_i),
    where n is the integer weight of the fibre action.
    """
    tv, txi, tzeta = _split(tangent, v)
    zeta = _zeta(zeta, "meromorphic connection has a pole at zeta = 0")
    return 2j * np.pi * n_char * tzeta / zeta + np.sum(xi * tv - v * txi, axis=-1) / (2.0 * zeta)


def fz_coefficients(v, xi, zeta) -> np.ndarray:
    """Curvature of the meromorphic connection in the chart coframe (dv, dxi, dzeta).

    F_Z = (1/zeta) sum_i dxi_i ^ dv_i - (1/2 zeta^2) dzeta ^ b with
    b = sum_i (xi_i dv_i - v_i dxi_i), as the antisymmetric matrix C with
    F_Z(s, t) = s^T C t.  The logarithmic term of the connection is closed
    and drops out, so F_Z does not depend on the fibre weight.  One C
    (2n+1, 2n+1) per row of the batch, over any leading shape of v and xi.
    """
    v, xi = np.asarray(v, dtype=complex), np.asarray(xi, dtype=complex)
    zeta = _zeta(zeta, "curvature has a pole at zeta = 0")[..., None]
    n = v.shape[-1]
    half = np.zeros(v.shape[:-1] + (2 * n + 1, 2 * n + 1), dtype=complex)  # C = half - half^T
    half[..., n : 2 * n, :n] = np.eye(n) / zeta[..., None]
    half[..., 2 * n, : 2 * n] = np.concatenate([-xi, v], axis=-1) / (2.0 * zeta**2)
    return half - np.swapaxes(half, -1, -2)


def curvature_FZ(v, xi, zeta, s_tangent, t_tangent) -> np.ndarray:
    """F_Z(s, t) = s^T C t on two batches of chart-U tangents, C = fz_coefficients."""
    s, t = _tangent(s_tangent, v), _tangent(t_tangent, v)
    return _pairing(s, fz_coefficients(v, xi, zeta), t)


def lifted_action_field(spec: CircleActionSpec, v, xi, zeta) -> np.ndarray:
    """Holomorphic lift of the weighted rotation to the twistor space, as chart-U tangents.

    In chart U the lift is i(k*v, l*xi, degree*zeta) per plane; its sphere
    projection is degree * (i zeta d/dzeta).
    """
    if np.shape(v)[1] != spec.n:
        raise ConfigError(f"action has {spec.n} planes but the points have {np.shape(v)[1]}")
    k = np.asarray(spec.k, dtype=float)
    l = np.asarray(spec.l, dtype=float)
    lift_zeta = 1j * spec.degree * np.asarray(zeta, dtype=complex)
    return np.concatenate([1j * k * v, 1j * l * xi, lift_zeta[:, None]], axis=1)


def action_invariance_residual(spec: CircleActionSpec, v, xi, zeta, tangent) -> np.ndarray:
    """|i_V F_Z (tangent)| for the lifted rotation field V."""
    return _modulus(curvature_FZ(v, xi, zeta, lifted_action_field(spec, v, xi, zeta), tangent))


def fibre_restriction_residual(z, w, zeta, s, t) -> np.ndarray:
    """Deviation of F_Z on vertical tangents from (-2i) x the symplectic pencil display.

    The display is the pencil divided by 2 i zeta.  The factor -2i comes
    from fz_coefficients: vertical lifts have tzeta = 0, so the dzeta ^ b
    term vanishes on them, and the lifts sv = sz + zeta conj(sw),
    sxi = sw - zeta conj(sz) turn (1/zeta) sum_i dxi_i ^ dv_i into -1/zeta
    times the pencil, which is -2i times the display.
    """
    zeta = _zeta(zeta, "the fibre comparison needs zeta != 0")
    v, xi = product_to_chart(z, w, zeta)
    lhs = curvature_FZ(v, xi, zeta, vertical_lift(zeta, s), vertical_lift(zeta, t))
    display = fibre_symplectic(FlatModel(np.shape(z)[1]), zeta, s, t) / (2j * zeta)
    return _modulus(lhs - (-2j) * display)


# -- contour quadrature -----------------------------------------------------------


def _contour(nodes: int) -> np.ndarray:
    """The nodes on |zeta| = CONTOUR_RADIUS."""
    if nodes < 4:
        raise ConfigError("contour quadrature needs at least 4 nodes")
    return CONTOUR_RADIUS * np.exp(2j * np.pi * np.arange(nodes) / nodes)


def _around_contour(zs, v, xi, tangent):
    """(v, xi, zeta, tangent) with each of the k rows repeated once per node and zeta the nodes.

    Row r * len(zs) + j is row r at node j, so values reshape to (k, nodes).
    """
    reps = len(zs)
    return (
        np.repeat(v, reps, axis=0),
        np.repeat(xi, reps, axis=0),
        np.tile(zs, len(v)),
        np.repeat(tangent, reps, axis=0),
    )


def laurent_coefficient(fn, k: int, nodes: int = CONTOUR_NODES):
    """Laurent coefficient a_k about 0 by trapezoidal contour quadrature.

    fn takes the array of contour nodes and returns its values there, or
    one row of values per function, (..., nodes); a_k comes per row.
    """
    zs = _contour(nodes)
    return np.mean(fn(zs) * zs ** (-k), axis=-1)


def pole_order(fn, nodes: int = CONTOUR_NODES) -> int:
    """Order of the pole of fn at 0, measured by Laurent sampling on |zeta| = CONTOUR_RADIUS.

    fn takes the array of contour nodes and returns its values there.  A
    coefficient a_{-k}, k <= _POLE_MAX_ORDER, counts as present when its
    contribution on the sampling circle exceeds _POLE_REL_TOL times the
    largest sample.
    """
    zs = _contour(nodes)
    vals = fn(zs)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0
    for k in range(_POLE_MAX_ORDER, 0, -1):
        a = np.mean(vals * zs**k)
        if abs(a) / CONTOUR_RADIUS**k > _POLE_REL_TOL * scale:
            return k
    return 0


def rotation_residue(n_char: int, v, xi, nodes: int = CONTOUR_NODES) -> np.ndarray:
    """(1/2 pi i) x the contour integral of the connection along a small circle, (k,).

    The fibre coordinates are held fixed while zeta traverses
    |zeta| = CONTOUR_RADIUS; for fibre weight n the measured value is
    2 pi i n.  The connection is linear in the tangent, so its value on the
    circle's velocity i zeta is its value on d/dzeta times i zeta.
    """
    zs = _contour(nodes)
    d_zeta = np.zeros((len(v), 2 * np.shape(v)[1] + 1), dtype=complex)
    d_zeta[:, -1] = 1.0
    values = mero_connection(n_char, *_around_contour(zs, v, xi, d_zeta))
    along = values.reshape(len(v), nodes) * (1j * zs)
    return np.sum(along * (2 * np.pi / nodes), axis=-1) / (2j * np.pi)


def fibre_residue(v, xi, tangent, nodes: int = CONTOUR_NODES) -> np.ndarray:
    """Residue at zeta = 0 of the connection (weight _FIBRE_WEIGHT) on fixed chart tangents, (k,).

    The fibre directions are the tangents with dzeta = 0; a dzeta
    component would add 2 pi i _FIBRE_WEIGHT dzeta to the residue.
    """
    tangent = _tangent(tangent, v)
    return laurent_coefficient(
        lambda zs: mero_connection(_FIBRE_WEIGHT, *_around_contour(zs, v, xi, tangent)).reshape(
            len(v), len(zs)
        ),
        k=-1,
        nodes=nodes,
    )


def residue_match_residual(z, w, m_tangent, nodes: int = CONTOUR_NODES) -> np.ndarray:
    """Compare the zeta = 0 fibre residue with (-1) x i_X(omega2 + i omega3)/2i, (k,).

    X is the full-rotation field; on the zeta = 0 fibre the chart
    coordinates coincide with (z, w), so the fibre tangents are the
    vertical lifts at zeta = 0, and the measured fibre-direction residue
    equals minus the contracted complex symplectic form.
    """
    model = FlatModel(np.shape(z)[1])
    spec = CircleActionSpec(k=(1,) * model.n, l=(1,) * model.n)
    s = np.asarray(m_tangent, dtype=float)
    measured = fibre_residue(z, w, vertical_lift(0.0, s), nodes=nodes)
    omega_c = model.omega2 + 1j * model.omega3
    x = action_vector_field(spec, model.from_complex(z, w))
    expected = _pairing(x, omega_c, s) / 2j
    return _modulus(measured - (-1.0) * expected)


@dataclass(frozen=True)
class MeroConnectionReport:
    """Measured pole and residue data of the invariant meromorphic connection."""

    n_char: int
    pole_order_zero: int
    pole_order_infinity: int
    rotation_residue: complex

    def __post_init__(self):
        if self.pole_order_zero > 1 or self.pole_order_infinity > 1:
            raise StructureError(
                "meromorphic connection must have at most simple poles, measured "
                f"orders ({self.pole_order_zero}, {self.pole_order_infinity})"
            )


def connection_report(
    n_char: int, v, xi, tangent, nodes: int = CONTOUR_NODES
) -> MeroConnectionReport:
    """Laurent-measure the connection at both sphere poles of one point, a 1-row batch.

    At infinity the supplied data are read as tilde coordinates held
    fixed on |zetat| = CONTOUR_RADIUS and transported back to chart U, so
    the same closed form is sampled in both charts; one chart transition
    takes every node back.
    """
    tangent = _tangent(tangent, v)
    if len(tangent) != 1:
        raise ConfigError(f"connection_report takes one point, a 1-row batch, not {len(tangent)}")

    def at_zero(zs):
        return mero_connection(n_char, *_around_contour(zs, v, xi, tangent))

    def at_infinity(zetats):
        (pv, pxi, pzeta), pulled = chart_transition(*_around_contour(zetats, v, xi, tangent))
        return mero_connection(n_char, pv, pxi, pzeta, pulled)

    return MeroConnectionReport(
        n_char=n_char,
        pole_order_zero=pole_order(at_zero, nodes),
        pole_order_infinity=pole_order(at_infinity, nodes),
        rotation_residue=complex(rotation_residue(n_char, v, xi, nodes)[0]),
    )


# -- real-coordinate bridge ---------------------------------------------------------


def total_dim(n: int) -> int:
    """Real dimension of the twistor space over flat H^n."""
    return 4 * n + 2


def pack_point(model: FlatModel, z, w, zeta) -> np.ndarray:
    """Real coordinates (flat packing, Re zeta, Im zeta), (k, 4n+2), of z, w (k, n), zeta (k,)."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    n = model.n
    p = np.empty(zeta.shape + (total_dim(n),))
    p[..., : 2 * n : 2], p[..., 1 : 2 * n : 2] = z.real, z.imag
    p[..., 2 * n : 4 * n : 2], p[..., 2 * n + 1 : 4 * n : 2] = w.real, w.imag
    p[..., 4 * n], p[..., 4 * n + 1] = zeta.real, zeta.imag
    return p


def unpack_point(model: FlatModel, p):
    """(z, w, zeta) of each row of real twistor coordinates (k, 4n+2)."""
    p = np.asarray(p, dtype=float)
    z, w = model.to_complex(p[..., : model.dim])
    return z, w, p[..., model.dim] + 1j * p[..., model.dim + 1]


def chart_jacobian(model: FlatModel, p) -> np.ndarray:
    """Complex Jacobian of the chart functions (v, xi, zeta) in real coordinates.

    One (2n+1, 4n+2) Jacobian per row of p (k, 4n+2).
    """
    z, w, zeta = unpack_point(model, p)
    zeta = zeta[..., None]
    n = model.n
    i = np.arange(n)
    (zr, zi), (wr, wi) = model.z_slots(i), model.w_slots(i)
    jac = np.zeros(zeta.shape[:-1] + (2 * n + 1, total_dim(n)), dtype=complex)
    jac[..., i, zr], jac[..., i, zi] = 1.0, 1.0j
    jac[..., i, wr], jac[..., i, wi] = zeta, -1.0j * zeta
    jac[..., i, 4 * n], jac[..., i, 4 * n + 1] = np.conj(w), 1.0j * np.conj(w)
    jac[..., n + i, wr], jac[..., n + i, wi] = 1.0, 1.0j
    jac[..., n + i, zr], jac[..., n + i, zi] = -zeta, 1.0j * zeta
    jac[..., n + i, 4 * n], jac[..., n + i, 4 * n + 1] = -np.conj(z), -1.0j * np.conj(z)
    jac[..., 2 * n, 4 * n], jac[..., 2 * n, 4 * n + 1] = 1.0, 1.0j
    return jac


def twistor_structure(n: int):
    """Points -> matrices callback for the twistor complex structure.

    Returns the real (4n+2)-dimensional almost-complex structure in which
    the chart functions are holomorphic: with the Jacobian split A + iB,
    S solves (A; B) S = (-B; A).  The callback takes an (m, 4n+2) batch
    and returns (m, 4n+2, 4n+2) from one stacked solve.
    """
    model = FlatModel(n)

    def structure(p) -> np.ndarray:
        jac = chart_jacobian(model, p)
        a, b = jac.real, jac.imag
        return np.linalg.solve(
            np.concatenate([a, b], axis=-2), np.concatenate([-b, a], axis=-2)
        )

    return structure


# -- hermitian metric ------------------------------------------------------------


def log_hU(z, w, zeta) -> np.ndarray:
    """(1/2) sum_i (|z_i|^2 - |w_i|^2) + Re(conj(zeta) sum_i z_i w_i), over the last axis.

    Re(conj(zeta) s) is written as Re zeta Re s + Im zeta Im s: numpy
    may round a product of complex arrays with a fused multiply-add and a
    product of complex scalars without one, and the real form rounds the
    same either way.
    """
    zeta = np.asarray(zeta)
    s = np.sum(z * w, axis=-1)
    return 0.5 * np.sum(np.abs(z) ** 2 - np.abs(w) ** 2, axis=-1) + (
        zeta.real * s.real + zeta.imag * s.imag
    )


def log_hV(z, w, zeta) -> np.ndarray:
    """Antipodal reality partner: -log h_U at (z, w, -1/conj(zeta))."""
    zeta = _zeta(zeta, "the antipode of zeta = 0 lies outside chart U")
    return -log_hU(z, w, -1.0 / np.conj(zeta))


def reality_residual(z, w, zeta) -> np.ndarray:
    """|log h_V - log h_U + log |g_UV|^2| at smooth-product points."""
    v, xi = product_to_chart(z, w, zeta)
    return np.abs(log_hV(z, w, zeta) - log_hU(z, w, zeta) + log_gUV_sq(v, xi, zeta))


def log_hU_field(n: int) -> ScalarField:
    """log h_U as a scalar field on (m, 4n + 2) batches of real twistor coordinates."""
    model = FlatModel(n)
    return ScalarField(fn=lambda p: log_hU(*unpack_point(model, p)), dim=total_dim(n))


def flat_reference_curvature(n: int) -> np.ndarray:
    """Exact curvature of the half-rotation bundle on flat space, components (nb,).

    omega1 + dd^c(mu) for the w-only rotation: sum_i dx_i ^ dy_i taken
    with weight +1 on each z-plane and -1 on each w-plane.
    """
    model = FlatModel(n)
    M = np.zeros((model.dim, model.dim))
    for i in range(n):
        M[model.z_slots(i)] = 1.0
        M[model.w_slots(i)] = -1.0
    return M[_pair_indices(model.dim)]


def _embedded_reference(n: int) -> np.ndarray:
    """Twice the flat reference on the first 4n coordinates of R^(4n+2), components (nb,)."""
    dim = total_dim(n)
    mat = np.zeros((dim, dim))
    mat[: 4 * n, : 4 * n] = 2.0 * _as_matrices(flat_reference_curvature(n), 4 * n)
    return mat[_pair_indices(dim)]


def hermitian_curvature_residual(n: int, z, w, zeta) -> np.ndarray:
    """Deviation of dd^c(log h_U) in the twistor structure from 2x the flat curvature, (k,).

    The reference form has no dzeta components; the residual is the
    max-abs deviation over all components of the full form, from one ddc
    call for the batch.
    """
    p = pack_point(FlatModel(n), z, w, zeta)
    got = ddc(log_hU_field(n), twistor_structure(n), p, _DDC_OUTER, _DDC_INNER)
    return np.max(np.abs(got - _embedded_reference(n)), axis=-1)


# -- curvature as a form field on real coordinates ------------------------------------


def curvature_FZ_field(n: int) -> FormField:
    """F_Z on the real twistor coordinates: J^T C J, C = fz_coefficients, J = chart_jacobian."""
    model = FlatModel(n)
    rows, cols = _pair_indices(total_dim(n))

    def value(p) -> np.ndarray:
        z, w, zeta = unpack_point(model, p)
        v, xi = product_to_chart(z, w, zeta)
        jac = chart_jacobian(model, p)
        return (jac.transpose(0, 2, 1) @ fz_coefficients(v, xi, zeta) @ jac)[:, rows, cols]

    return FormField(
        fn=value,
        degree=2,
        dim=total_dim(n),
        clearance=lambda p: np.hypot(p[:, -2], p[:, -1]),
    )


def fz_closedness_residual(n: int, z, w, zeta) -> np.ndarray:
    """max |d F_Z| components at each point (finite differences), (k,), from one ext_deriv call."""
    p = pack_point(FlatModel(n), z, w, zeta)
    return np.max(np.abs(ext_deriv(curvature_FZ_field(n), p, _CLOSEDNESS_SCHEME)), axis=-1)
