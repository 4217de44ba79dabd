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
* real flat tangents are (k, 4n) and real twistor points and tangents
  (k, 4n+2).

n is read from these widths, so no function that takes a point takes
n or a model; a width that fits no n, or z and w of different widths,
raises ConfigError.

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

import numpy as np

from .errors import ConfigError, DomainError
from .flatspace import CircleActionSpec, FlatModel, _shared_model, action_vector_field
from .forms import (
    FDScheme,
    FormField,
    ScalarField,
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
#: the connection's weight in residue_match_residual; its fibre tangents
#: have dzeta = 0, so the weight's term 2 pi i n dzeta/zeta vanishes
_FIBRE_WEIGHT = 2

#: one step inside and out for dd^c log h_U: log h_U is cubic, so the order-4 inner
#: gradient has no truncation error and a smaller step would only add roundoff eps |f| / h
_DDC_SCHEME = FDScheme(h=2e-3, order=4)
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


def _real_model(array, extra: int, what: str) -> FlatModel:
    """The model of H^n for real arrays (..., 4n + extra); ConfigError for any other width."""
    width = np.shape(array)[-1] if np.ndim(array) else 0
    n, rest = divmod(width - extra, 4)
    if n < 1 or rest:
        expected = f"4n+{extra}" if extra else "4n"
        raise ConfigError(f"{what} have width {expected} with n >= 1, got {width}")
    return _shared_model(n)


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


def _same_width(z, w):
    """z and w as arrays of at least one axis, after checking that they have one width n."""
    z, w = np.atleast_1d(z), np.atleast_1d(w)
    if z.shape[-1] != w.shape[-1]:
        raise ConfigError(f"z and w must have the same width n, got {z.shape} and {w.shape}")
    return z, w


def product_to_chart(z, w, zeta):
    """Chart-U coordinates (v, xi) = (z + zeta conj(w), w - zeta conj(z)) of smooth-product points.

    zeta has the leading shape of z and w; chart U keeps it as it is.
    """
    z, w = _same_width(z, w)
    zeta = np.asarray(zeta)[..., None]
    return z + zeta * np.conj(w), w - zeta * np.conj(z)


def vertical_lift(zeta, m_tangent) -> np.ndarray:
    """Push real flat tangents (k, 4n) to vertical chart-U tangents (k, 2n+1), dzeta = 0.

    The chart map is complex-linear in (z, w) at fixed zeta, so the lift
    is the chart map applied to the tangent.
    """
    m_tangent = np.asarray(m_tangent, dtype=float)
    tz, tw = _real_model(m_tangent, 0, "real flat tangents").to_complex(m_tangent)
    tv, txi = product_to_chart(tz, tw, zeta)
    return np.concatenate([tv, txi, np.zeros((len(tv), 1))], axis=1)


# -- fibrewise symplectic pencil --------------------------------------------------


def fibre_symplectic(zeta, s, t) -> np.ndarray:
    """The quadratic symplectic pencil on real vertical tangents s, t (k, 4n), (k,).

    (omega2 + i omega3)(s,t) + 2i zeta omega1(s,t)
                             + zeta^2 (omega2 - i omega3)(s,t).
    """
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    model = _real_model(s, 0, "real flat tangents")
    if np.shape(t)[-1:] != s.shape[-1:]:
        raise ConfigError(f"s and t must have the same width, got {s.shape} and {np.shape(t)}")
    w1, w2, w3 = (_pairing(s, w, t) for w in model.kahler_triple())
    zeta = np.asarray(zeta, dtype=complex)
    return (w2 + 1j * w3) + 2j * zeta * w1 + zeta**2 * (w2 - 1j * w3)


# -- line-bundle transition ---------------------------------------------------------


def _half_overlap(v, xi, zeta) -> np.ndarray:
    """sum_i v_i xi_i / 2 zeta, the exponent of the transition function."""
    zeta = _zeta(zeta, "transition function has an essential singularity at zeta = 0")
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
    display = fibre_symplectic(zeta, s, t) / (2j * zeta)
    return _modulus(lhs - (-2j) * display)


# -- contour quadrature -----------------------------------------------------------


#: the CONTOUR_NODES nodes on |zeta| = CONTOUR_RADIUS
_CONTOUR = CONTOUR_RADIUS * np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
_CONTOUR.flags.writeable = False


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


def pole_order(fn) -> int:
    """Order of the pole of fn at 0, measured by Laurent sampling on |zeta| = CONTOUR_RADIUS.

    fn takes the array of contour nodes and returns its values there.  A
    coefficient a_{-k}, k <= _POLE_MAX_ORDER, counts as present when its
    contribution on the sampling circle exceeds _POLE_REL_TOL times the
    largest sample.
    """
    vals = fn(_CONTOUR)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0
    for k in range(_POLE_MAX_ORDER, 0, -1):
        a = np.mean(vals * _CONTOUR**k)
        if abs(a) / CONTOUR_RADIUS**k > _POLE_REL_TOL * scale:
            return k
    return 0


def connection_residue(n_char: int, v, xi, tangent) -> np.ndarray:
    """Residue at zeta = 0 of the weight-n_char connection on fixed chart tangents, (k,).

    The mean of A(tangent) zeta over the nodes on |zeta| = CONTOUR_RADIUS,
    (v, xi) and the tangent held fixed: the trapezoidal rule for (1/2 pi i)
    times the contour integral of A(tangent) dzeta.  The term 2 pi i n
    dzeta/zeta adds 2 pi i n dzeta, so d/dzeta gives the rotation residue
    2 pi i n and a fibre tangent (dzeta = 0) the fibre residue.
    """
    tangent = _tangent(tangent, v)
    values = mero_connection(n_char, *_around_contour(_CONTOUR, v, xi, tangent))
    return np.mean(values.reshape(len(v), CONTOUR_NODES) * _CONTOUR, axis=-1)


def residue_match_residual(z, w, m_tangent) -> np.ndarray:
    """Compare the zeta = 0 fibre residue with (-1) x i_X(omega2 + i omega3)/2i, (k,).

    X is the full-rotation field; on the zeta = 0 fibre the chart
    coordinates coincide with (z, w), so the fibre tangents are the
    vertical lifts at zeta = 0, and the measured fibre-direction residue
    equals minus the contracted complex symplectic form.
    """
    z, w = _same_width(z, w)
    model = _shared_model(z.shape[1])
    spec = CircleActionSpec(k=(1,) * model.n, l=(1,) * model.n)
    s = np.asarray(m_tangent, dtype=float)
    measured = connection_residue(_FIBRE_WEIGHT, z, w, vertical_lift(0.0, s))
    omega_c = model.omega2 + 1j * model.omega3
    x = action_vector_field(spec, model.from_complex(z, w))
    expected = _pairing(x, omega_c, s) / 2j
    return _modulus(measured - (-1.0) * expected)


def pole_orders(n_char: int, v, xi, tangent) -> tuple[int, int]:
    """Pole orders of the connection at zeta = 0 and infinity over one point, a 1-row batch.

    At infinity the supplied data are read as tilde coordinates held
    fixed on |zetat| = CONTOUR_RADIUS and transported back to chart U, so
    the same closed form is sampled in both charts; one chart transition
    takes every node back.
    """
    tangent = _tangent(tangent, v)
    if len(tangent) != 1:
        raise ConfigError(f"pole_orders takes one point, a 1-row batch, not {len(tangent)}")

    def at_zero(zs):
        return mero_connection(n_char, *_around_contour(zs, v, xi, tangent))

    def at_infinity(zetats):
        (pv, pxi, pzeta), pulled = chart_transition(*_around_contour(zetats, v, xi, tangent))
        return mero_connection(n_char, pv, pxi, pzeta, pulled)

    return pole_order(at_zero), pole_order(at_infinity)


# -- real-coordinate bridge ---------------------------------------------------------


def total_dim(n: int) -> int:
    """Real dimension of the twistor space over flat H^n."""
    return 4 * n + 2


def pack_point(z, w, zeta) -> np.ndarray:
    """Real coordinates (flat packing, Re zeta, Im zeta), (k, 4n+2), of z, w (k, n), zeta (k,)."""
    z, w = _same_width(z, w)
    zeta = np.asarray(zeta, dtype=complex)[..., None]
    flat = _shared_model(z.shape[-1]).from_complex(z, w)
    return np.concatenate([flat, zeta.real, zeta.imag], axis=-1)


def unpack_point(p):
    """(z, w, zeta) of each row of real twistor coordinates (k, 4n+2)."""
    p = np.asarray(p, dtype=float)
    model = _real_model(p, 2, "real twistor coordinates")
    z, w = model.to_complex(p[..., : model.dim])
    return z, w, p[..., model.dim] + 1j * p[..., model.dim + 1]


def chart_jacobian(p) -> np.ndarray:
    """Complex Jacobian of the chart functions (v, xi, zeta) in real coordinates.

    One (2n+1, 4n+2) Jacobian per row of p (k, 4n+2).
    """
    z, w, zeta = unpack_point(p)
    zeta = zeta[..., None]
    model = _shared_model(z.shape[-1])
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

    Returns the real (4n+2)-dimensional complex structure S in which the
    chart functions (v, xi, zeta) are holomorphic, D S = i D for their
    Jacobian D (``chart_jacobian``).  In closed form S is I_zeta on the
    flat factor and i on the fibre:

        S = blockdiag(I_zeta, [[0, -1], [1, 0]]),
        I_zeta = ((1 - |zeta|^2) I - 2 Re zeta K + 2 Im zeta J) / (1 + |zeta|^2).

    Derivation.  Write I_zeta = aI + bJ + cK and beta = b + ic.  On a flat
    tangent X = (dz, dw), I X = (i dz, i dw) and J X = (-conj(dw), conj(dz)),
    so I_zeta X = (ia dz - beta conj(dw), ia dw + beta conj(dz)).  The
    chart differentials at fixed zeta, dv = dz + zeta conj(dw) and
    dxi = dw - zeta conj(dz), then give

        dv(I_zeta X)  = (ia + zeta conj(beta)) dz - (beta + ia zeta) conj(dw),
        dxi(I_zeta X) = (ia + zeta conj(beta)) dw + (beta + ia zeta) conj(dz).

    Both equal i dv(X) and i dxi(X) exactly when beta = -i zeta (1 + a)
    and a + |zeta|^2 (1 + a) = 1: a = (1 - |zeta|^2)/(1 + |zeta|^2) and
    beta = -2i zeta/(1 + |zeta|^2), so b = 2 Im zeta/(1 + |zeta|^2) and
    c = -2 Re zeta/(1 + |zeta|^2), the display.  The zeta derivatives of
    v, xi and zeta are conj(w), -conj(z) and 1 times the covector (1, i)
    on (Re zeta, Im zeta), and (1, i) [[0, -1], [1, 0]] = i (1, i): the
    fibre block alone takes each of them to i times itself, so the
    off-diagonal blocks are exactly 0.  D S = i D has one solution (the
    real and imaginary parts of the 2n+1 chart differentials are a
    coframe), so this is the S of the stacked solve (A; B) S = (-B; A)
    of the Jacobian split D = A + iB.

    The callback takes an (m, 4n+2) batch and returns (m, 4n+2, 4n+2), one
    product of the (m, 4) coefficients (a, b, c, 1) with the stacked I, J,
    K and fibre block.  These have disjoint supports of entries +-1, so
    every entry of S is one coefficient or 0, summed with zeros only: a
    row of a batch has the bits of that point alone.
    """
    model = _shared_model(n)
    dim = total_dim(n)
    basis = np.zeros((4, dim, dim))
    for slot, s in enumerate(model.structures()):
        basis[slot, : model.dim, : model.dim] = s
    basis[3, model.dim + 1, model.dim], basis[3, model.dim, model.dim + 1] = 1.0, -1.0
    basis = basis.reshape(4, dim * dim)

    def structure(p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        x, y = p[..., model.dim], p[..., model.dim + 1]
        r2 = x * x + y * y
        den = 1.0 + r2
        coeffs = np.stack([(1.0 - r2) / den, 2.0 * y / den, -2.0 * x / den, np.ones_like(x)], -1)
        return (coeffs @ basis).reshape(p.shape[:-1] + (dim, dim))

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
    return ScalarField(fn=lambda p: log_hU(*unpack_point(p)), dim=total_dim(n))


def _embedded_reference(n: int) -> np.ndarray:
    """Twice the exact flat curvature of the half-rotation bundle, on R^(4n+2), components (nb,).

    The flat curvature omega1 + dd^c(mu) of the w-only rotation is
    sum_i dx_i ^ dy_i with weight +1 on each z-plane and -1 on each
    w-plane; the last two (zeta) coordinates carry no component.
    """
    model = _shared_model(n)
    mat = np.zeros((total_dim(n), total_dim(n)))
    for i in range(n):
        mat[model.z_slots(i)] = 2.0
        mat[model.w_slots(i)] = -2.0
    return mat[_pair_indices(total_dim(n))]


def hermitian_curvature_residual(z, w, zeta) -> np.ndarray:
    """Deviation of dd^c(log h_U) in the twistor structure from 2x the flat curvature, (k,).

    The reference form has no dzeta components; the residual is the
    max-abs deviation over all components of the full form, from one ddc
    call for the batch.
    """
    p = pack_point(z, w, zeta)
    n = (p.shape[-1] - 2) // 4
    got = ddc(log_hU_field(n), twistor_structure(n), p, _DDC_SCHEME)
    return np.max(np.abs(got - _embedded_reference(n)), axis=-1)


# -- curvature as a form field on real coordinates ------------------------------------


def curvature_FZ_field(n: int) -> FormField:
    """F_Z on the real twistor coordinates: J^T C J, C = fz_coefficients, J = chart_jacobian."""
    rows, cols = _pair_indices(total_dim(n))

    def value(p) -> np.ndarray:
        z, w, zeta = unpack_point(p)
        v, xi = product_to_chart(z, w, zeta)
        jac = chart_jacobian(p)
        return (jac.transpose(0, 2, 1) @ fz_coefficients(v, xi, zeta) @ jac)[:, rows, cols]

    return FormField(
        fn=value,
        degree=2,
        dim=total_dim(n),
        clearance=lambda p: np.hypot(p[:, -2], p[:, -1]),
    )


def fz_closedness_residual(z, w, zeta) -> np.ndarray:
    """max |d F_Z| components at each point (finite differences), (k,), from one ext_deriv call."""
    p = pack_point(z, w, zeta)
    n = (p.shape[-1] - 2) // 4
    return np.max(np.abs(ext_deriv(curvature_FZ_field(n), p, _CLOSEDNESS_SCHEME)), axis=-1)
