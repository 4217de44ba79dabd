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
    FormValue,
    ScalarField,
    _pair_indices,
    ddc,
    ext_deriv,
    fd_gradient,
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

CHARTS = ("U", "V")

_DBAR_SCHEME = FDScheme(h=1e-4, order=4)
_DDC_OUTER = FDScheme(h=2e-3, order=4)
_DDC_INNER = FDScheme(h=1e-4, order=4)
_CLOSEDNESS_SCHEME = FDScheme(h=1e-3, order=4)


def _cvec(x, label: str) -> np.ndarray:
    out = np.atleast_1d(np.asarray(x, dtype=complex))
    if out.ndim != 1:
        raise ConfigError(f"{label} must be a vector, got shape {out.shape}")
    return out


def _off_zero(zeta, message: str):
    """zeta as a complex number, or an array of them; DomainError(message) if any is 0."""
    zeta = np.asarray(zeta, dtype=complex) if np.ndim(zeta) else complex(zeta)
    if np.any(zeta == 0):
        raise DomainError(message)
    return zeta


def _chart_tangent(tangent, n: int):
    """A chart tangent (tv, txi, tzeta) as two complex n-vectors and a complex."""
    tv, txi, tzeta = tangent
    tv, txi = _cvec(tv, "tv"), _cvec(txi, "txi")
    if len(tv) != n or len(txi) != n:
        raise ConfigError(
            f"tangent components must have length {n}, got {len(tv)} and {len(txi)}"
        )
    return tv, txi, complex(tzeta)


# -- charts ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChartPoint:
    """A twistor-space point in chart "U" (zeta finite) or "V" (tilde coords)."""

    v: np.ndarray
    xi: np.ndarray
    zeta: complex
    chart: str = "U"

    def __post_init__(self):
        object.__setattr__(self, "v", _cvec(self.v, "v"))
        object.__setattr__(self, "xi", _cvec(self.xi, "xi"))
        object.__setattr__(self, "zeta", complex(self.zeta))
        if self.chart not in CHARTS:
            raise ConfigError(f"chart must be one of {CHARTS}, got {self.chart!r}")
        if self.v.shape != self.xi.shape:
            raise ConfigError("v and xi must have the same length")

    @property
    def n(self) -> int:
        return len(self.v)

    def other(self) -> "ChartPoint":
        """The same point in the opposite chart; an exact involution."""
        zeta = _off_zero(self.zeta, "chart transition undefined on the zeta = 0 fibre")
        target = "V" if self.chart == "U" else "U"
        return ChartPoint(self.v / zeta, self.xi / zeta, 1.0 / zeta, target)


def transition_pushforward(pt: ChartPoint, tangent):
    """Transport (tv, txi, tzeta) through the chart transition at pt.

    Returns the pair (image point, transported tangent).
    """
    tv, txi, tzeta = _chart_tangent(tangent, pt.n)
    z2 = pt.zeta * pt.zeta
    out = (
        tv / pt.zeta - pt.v * tzeta / z2,
        txi / pt.zeta - pt.xi * tzeta / z2,
        -tzeta / z2,
    )
    return pt.other(), out


def _chart_coords(z, w, zeta):
    """(v, xi) = (z + zeta conj(w), w - zeta conj(z)) over the last axis of z and w.

    zeta is one complex number, or an array of the leading shape of z and w.
    """
    zeta = np.asarray(zeta)[..., None]
    return z + zeta * np.conj(w), w - zeta * np.conj(z)


def product_to_chart(z, w, zeta: complex) -> ChartPoint:
    """Chart-U coordinates of the smooth-product point (z, w, zeta)."""
    z, w = _cvec(z, "z"), _cvec(w, "w")
    zeta = complex(zeta)
    return ChartPoint(*_chart_coords(z, w, zeta), zeta, "U")


def chart_to_product(pt: ChartPoint):
    """Invert the smooth-product map: chart-U point -> (z, w).

    V-chart points are routed through the transition and therefore
    require zeta != 0 there.
    """
    if pt.chart == "V":
        pt = pt.other()
    denom = 1.0 + abs(pt.zeta) ** 2
    z = (pt.v - pt.zeta * np.conj(pt.xi)) / denom
    w = (pt.xi + pt.zeta * np.conj(pt.v)) / denom
    return z, w


def vertical_lift(z, w, zeta: complex, m_tangent):
    """Push a real flat-space tangent to a vertical chart-U tangent (tzeta = 0)."""
    z = _cvec(z, "z")
    model = FlatModel(len(z))
    tz, tw = model.to_complex(np.asarray(m_tangent, dtype=float))
    zeta = complex(zeta)
    return tz + zeta * np.conj(tw), tw - zeta * np.conj(tz), 0.0j


# -- fibrewise symplectic pencil --------------------------------------------------


def fibre_symplectic(model: FlatModel, zeta: complex, s, t) -> complex:
    """The quadratic symplectic pencil evaluated on real vertical tangents.

    (omega2 + i omega3)(s,t) + 2i zeta omega1(s,t)
                             + zeta^2 (omega2 - i omega3)(s,t).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    w1 = model.omega1(s, t)
    w2 = model.omega2(s, t)
    w3 = model.omega3(s, t)
    zeta = complex(zeta)
    return (w2 + 1j * w3) + 2j * zeta * w1 + zeta**2 * (w2 - 1j * w3)


# -- line-bundle transition ---------------------------------------------------------


def _half_overlap(v, xi, zeta: complex, where: str = "zeta") -> complex:
    """sum_i v_i xi_i / 2 zeta, the exponent of the transition function."""
    v, xi = _cvec(v, "v"), _cvec(xi, "xi")
    zeta = _off_zero(zeta, f"transition function has an essential singularity at {where} = 0")
    return complex(np.sum(v * xi) / (2.0 * zeta))


def transition_gUV(v, xi, zeta: complex) -> complex:
    """Holomorphic transition function exp(-sum_i v_i xi_i / 2 zeta)."""
    return complex(np.exp(-_half_overlap(v, xi, zeta)))


def transition_gVU(vt, xit, zetat: complex) -> complex:
    """Inverse transition in tilde coordinates: exp(+sum_i vt_i xit_i / 2 zetat).

    Since sum v xi / 2 zeta takes the same value in either chart, the
    inverse carries the opposite exponent sign.
    """
    return complex(np.exp(_half_overlap(vt, xit, zetat, "zetat")))


def log_gUV_sq(v, xi, zeta: complex) -> float:
    """log |g_UV|^2 = -Re(sum_i v_i xi_i / zeta)."""
    return -2.0 * _half_overlap(v, xi, zeta).real


# -- semi-free-action connection pair --------------------------------------------------


def semifree_AU(v, xi, zeta: complex, tangent) -> complex:
    """Chart-U connection form of the w-only rotation: (1/2 zeta) sum v_i d xi_i."""
    v = _cvec(v, "v")
    _, txi, _ = _chart_tangent(tangent, len(v))
    zeta = _off_zero(zeta, "connection form has a pole at zeta = 0")
    return complex(np.sum(v * txi) / (2.0 * zeta))


def semifree_AV(vt, xit, zetat: complex, tangent) -> complex:
    """Chart-V connection form: -(1/2 zetat) sum xit_i d vt_i."""
    xit = _cvec(xit, "xit")
    tvt, _, _ = _chart_tangent(tangent, len(xit))
    zetat = _off_zero(zetat, "connection form has a pole at zetat = 0")
    return complex(-np.sum(xit * tvt) / (2.0 * zetat))


def overlap_potential_d(v, xi, zeta: complex, tangent) -> complex:
    """Exact differential of sum_i v_i xi_i / 2 zeta on a chart-U tangent."""
    v, xi = _cvec(v, "v"), _cvec(xi, "xi")
    tv, txi, tzeta = _chart_tangent(tangent, len(v))
    zeta = _off_zero(zeta, "overlap potential has a pole at zeta = 0")
    return complex(
        np.sum(xi * tv + v * txi) / (2.0 * zeta)
        - np.sum(v * xi) * tzeta / (2.0 * zeta**2)
    )


def connection_pair_residual(v, xi, zeta: complex, tangent) -> float:
    """|(A_V - A_U + d(sum v xi / 2 zeta))(tangent)| at a chart-U point."""
    pt = ChartPoint(v, xi, zeta)
    other, tilde = transition_pushforward(pt, tangent)
    lhs = semifree_AV(other.v, other.xi, other.zeta, tilde) - semifree_AU(
        v, xi, zeta, tangent
    )
    return abs(lhs + overlap_potential_d(v, xi, zeta, tangent))


# -- meromorphic connection of the weighted rotation -----------------------------------


def mero_connection(n_char: int, v, xi, zeta, tangent):
    """The invariant meromorphic connection form on a chart-U tangent.

    2 pi i n dzeta/zeta + (1/2 zeta) sum_i (xi_i dv_i - v_i dxi_i),
    where n is the integer weight of the fibre action.  ``zeta`` is one
    complex number, giving a complex, or an array of them with (v, xi) and
    the tangent held fixed, giving one value per entry.
    """
    v, xi = _cvec(v, "v"), _cvec(xi, "xi")
    tv, txi, tzeta = _chart_tangent(tangent, len(v))
    zeta = _off_zero(zeta, "meromorphic connection has a pole at zeta = 0")
    value = 2j * np.pi * n_char * tzeta / zeta + np.sum(xi * tv - v * txi) / (2.0 * zeta)
    return value if np.ndim(value) else complex(value)


def fz_coefficients(v, xi, zeta) -> np.ndarray:
    """Curvature of the meromorphic connection in the chart coframe (dv, dxi, dzeta).

    F_Z = (1/zeta) sum_i dxi_i ^ dv_i - (1/2 zeta^2) dzeta ^ b with
    b = sum_i (xi_i dv_i - v_i dxi_i), as the antisymmetric matrix C with
    F_Z(s, t) = s^T C t.  The logarithmic term of the connection is closed
    and drops out, so F_Z does not depend on the fibre weight.  v and xi
    are (..., n) and zeta has their leading shape: one point gives C as
    (2n+1, 2n+1), a batch gives one C per row.
    """
    v, xi = np.asarray(v, dtype=complex), np.asarray(xi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)[..., None]
    if np.any(zeta == 0):
        raise DomainError("curvature has a pole at zeta = 0")
    n = v.shape[-1]
    half = np.zeros(v.shape[:-1] + (2 * n + 1, 2 * n + 1), dtype=complex)  # C = half - half^T
    half[..., n : 2 * n, :n] = np.eye(n) / zeta[..., None]
    half[..., 2 * n, : 2 * n] = np.concatenate([-xi, v], axis=-1) / (2.0 * zeta**2)
    return half - np.swapaxes(half, -1, -2)


def curvature_FZ(v, xi, zeta: complex, s_tangent, t_tangent) -> complex:
    """F_Z(s, t) = s^T C t on two chart-U tangents, C = fz_coefficients."""
    n = len(_cvec(v, "v"))
    s, t = (
        np.concatenate([tv, txi, [tzeta]])
        for tv, txi, tzeta in (_chart_tangent(x, n) for x in (s_tangent, t_tangent))
    )
    return complex(s @ fz_coefficients(v, xi, zeta) @ t)


def lifted_action_field(spec: CircleActionSpec, pt: ChartPoint):
    """Holomorphic lift of the weighted rotation to the twistor space.

    In chart U the lift is i(k*v, l*xi, degree*zeta) per plane; its sphere
    projection is degree * (i zeta d/dzeta).
    """
    if pt.chart != "U":
        raise ConfigError("the lift is expressed in chart-U coordinates")
    if pt.n != spec.n:
        raise ConfigError(
            f"action has {spec.n} planes but the point has {pt.n}"
        )
    k = np.asarray(spec.k, dtype=float)
    l = np.asarray(spec.l, dtype=float)
    return 1j * k * pt.v, 1j * l * pt.xi, 1j * spec.degree * pt.zeta


def action_invariance_residual(spec: CircleActionSpec, pt: ChartPoint, tangent) -> float:
    """|i_V F_Z (tangent)| for the lifted rotation field V."""
    lift = lifted_action_field(spec, pt)
    return abs(curvature_FZ(pt.v, pt.xi, pt.zeta, lift, tangent))


def fibre_restriction_residual(z, w, zeta: complex, s, t) -> float:
    """Deviation of F_Z on vertical tangents from (-2i) x the symplectic pencil display.

    The display is the pencil divided by 2 i zeta.  The factor -2i comes
    from fz_coefficients: vertical lifts have tzeta = 0, so the dzeta ^ b
    term vanishes on them, and the lifts sv = sz + zeta conj(sw),
    sxi = sw - zeta conj(sz) turn (1/zeta) sum_i dxi_i ^ dv_i into -1/zeta
    times the pencil, which is -2i times the display.
    """
    z = _cvec(z, "z")
    model = FlatModel(len(z))
    zeta = _off_zero(zeta, "the fibre comparison needs zeta != 0")
    pt = product_to_chart(z, w, zeta)
    s_lift = vertical_lift(z, w, zeta, s)
    t_lift = vertical_lift(z, w, zeta, t)
    lhs = curvature_FZ(pt.v, pt.xi, pt.zeta, s_lift, t_lift)
    display = fibre_symplectic(model, zeta, s, t) / (2j * zeta)
    return abs(lhs - (-2j) * display)


# -- contour quadrature -----------------------------------------------------------


def _contour(nodes: int) -> np.ndarray:
    """The nodes on |zeta| = CONTOUR_RADIUS."""
    if nodes < 4:
        raise ConfigError("contour quadrature needs at least 4 nodes")
    return CONTOUR_RADIUS * np.exp(2j * np.pi * np.arange(nodes) / nodes)


def _contour_values(fn, zs) -> np.ndarray:
    """fn at every contour node from one call fn(zs); a scalar result is broadcast."""
    return np.broadcast_to(np.asarray(fn(zs), dtype=complex), zs.shape)


def laurent_coefficient(fn, k: int, nodes: int = CONTOUR_NODES) -> complex:
    """Laurent coefficient a_k of fn about 0 by trapezoidal contour quadrature.

    fn takes the array of contour nodes and returns its values there.
    """
    zs = _contour(nodes)
    return complex(np.mean(_contour_values(fn, zs) * zs ** (-k)))


def pole_order(fn, nodes: int = CONTOUR_NODES) -> int:
    """Order of the pole of fn at 0, measured by Laurent sampling on |zeta| = CONTOUR_RADIUS.

    fn takes the array of contour nodes and returns its values there.  A
    coefficient a_{-k}, k <= _POLE_MAX_ORDER, counts as present when its
    contribution on the sampling circle exceeds _POLE_REL_TOL times the
    largest sample.
    """
    zs = _contour(nodes)
    vals = _contour_values(fn, zs)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0
    for k in range(_POLE_MAX_ORDER, 0, -1):
        a = np.mean(vals * zs**k)
        if abs(a) / CONTOUR_RADIUS**k > _POLE_REL_TOL * scale:
            return k
    return 0


def rotation_residue(n_char: int, v, xi, nodes: int = CONTOUR_NODES) -> complex:
    """(1/2 pi i) x the contour integral of the connection along a small circle.

    The fibre coordinates are held fixed while zeta traverses
    |zeta| = CONTOUR_RADIUS; for fibre weight n the measured value is
    2 pi i n.  The connection is linear in the tangent, so its value on the
    circle's velocity i zeta is its value on d/dzeta times i zeta.
    """
    zs = _contour(nodes)
    zero_v, zero_xi = np.zeros_like(_cvec(v, "v")), np.zeros_like(_cvec(xi, "xi"))
    along = mero_connection(n_char, v, xi, zs, (zero_v, zero_xi, 1.0)) * (1j * zs)
    return complex(np.sum(along * (2 * np.pi / nodes)) / (2j * np.pi))


def fibre_residue(v, xi, fibre_tangent, nodes: int = CONTOUR_NODES) -> complex:
    """Residue at zeta = 0 of the connection (weight _FIBRE_WEIGHT) on a fixed fibre tangent."""
    tv, txi = _cvec(fibre_tangent[0], "tv"), _cvec(fibre_tangent[1], "txi")
    return laurent_coefficient(
        lambda zeta: mero_connection(_FIBRE_WEIGHT, v, xi, zeta, (tv, txi, 0.0j)),
        k=-1,
        nodes=nodes,
    )


def residue_match_residual(z, w, m_tangent, nodes: int = CONTOUR_NODES) -> float:
    """Compare the zeta = 0 fibre residue with (-1) x i_X(omega2 + i omega3)/2i.

    X is the full-rotation field; on the zeta = 0 fibre the chart
    coordinates coincide with (z, w) and the measured fibre-direction
    residue equals minus the contracted complex symplectic form.
    """
    z, w = _cvec(z, "z"), _cvec(w, "w")
    model = FlatModel(len(z))
    spec = CircleActionSpec(k=(1,) * model.n, l=(1,) * model.n)
    m = model.from_complex(z, w)
    s = np.asarray(m_tangent, dtype=float)
    tz, tw = model.to_complex(s)
    measured = fibre_residue(z, w, (tz, tw), nodes=nodes)
    omega_c = model.omega2 + 1j * model.omega3
    expected = omega_c(action_vector_field(spec, m), s) / 2j
    return abs(measured - (-1.0) * expected)


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
    """Laurent-measure the connection at both sphere poles.

    At infinity the supplied data are read as tilde coordinates held
    fixed on |zetat| = CONTOUR_RADIUS and transported back to chart U, so
    the same closed form is sampled in both charts.
    """

    def at_zero(zeta):
        return mero_connection(n_char, v, xi, zeta, tangent)

    def at_infinity(zetats):
        # the point and tangent pulled back to chart U change with zetat,
        # so the nodes go through the transition one at a time
        pulled = (transition_pushforward(ChartPoint(v, xi, zt, "V"), tangent) for zt in zetats)
        return np.array([mero_connection(n_char, p.v, p.xi, p.zeta, t) for p, t in pulled])

    return MeroConnectionReport(
        n_char=n_char,
        pole_order_zero=pole_order(at_zero, nodes),
        pole_order_infinity=pole_order(at_infinity, nodes),
        rotation_residue=rotation_residue(n_char, v, xi, nodes),
    )


# -- real-coordinate bridge ---------------------------------------------------------


def total_dim(n: int) -> int:
    """Real dimension of the twistor space over flat H^n."""
    return 4 * n + 2


def pack_point(model: FlatModel, z, w, zeta) -> np.ndarray:
    """Real coordinates (flat-space packing, Re zeta, Im zeta).

    One point (z, w of length n, a complex zeta) gives (4n+2,); a batch
    (z, w of shape (k, n), zeta of shape (k,)) gives (k, 4n+2).
    """
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    n = model.n
    p = np.empty(zeta.shape + (total_dim(n),))
    p[..., : 2 * n : 2], p[..., 1 : 2 * n : 2] = z.real, z.imag
    p[..., 2 * n : 4 * n : 2], p[..., 2 * n + 1 : 4 * n : 2] = w.real, w.imag
    p[..., 4 * n], p[..., 4 * n + 1] = zeta.real, zeta.imag
    return p


def unpack_point(model: FlatModel, p):
    """(z, w, zeta) of one point (4n+2,) or of each row of a batch (..., 4n+2)."""
    p = np.asarray(p, dtype=float)
    z, w = model.to_complex(p[..., : model.dim])
    return z, w, p[..., model.dim] + 1j * p[..., model.dim + 1]


def chart_jacobian(model: FlatModel, p) -> np.ndarray:
    """Complex Jacobian of the chart functions (v, xi, zeta) in real coordinates.

    p is one point (4n+2,), giving (2n+1, 4n+2), or a batch (..., 4n+2),
    giving one Jacobian per row.
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
    and returns (m, 4n+2, 4n+2) from one stacked solve, or one point and
    its matrix.
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


def _log_hU(z, w, zeta_re, zeta_im):
    """log h_U over the last axis of z and w; zeta is given by its parts.

    Re(conj(zeta) s) is written as Re zeta Re s + Im zeta Im s: numpy
    rounds a product of complex arrays differently from a product of
    complex scalars, and the real form keeps a batch row bit-identical
    to the same point evaluated alone.
    """
    s = np.sum(z * w, axis=-1)
    return 0.5 * np.sum(np.abs(z) ** 2 - np.abs(w) ** 2, axis=-1) + (
        zeta_re * s.real + zeta_im * s.imag
    )


def log_hU(z, w, zeta: complex) -> float:
    """(1/2) sum_i (|z_i|^2 - |w_i|^2) + Re(conj(zeta) sum_i z_i w_i)."""
    z, w = _cvec(z, "z"), _cvec(w, "w")
    zeta = complex(zeta)
    return float(_log_hU(z, w, zeta.real, zeta.imag))


def log_hV(z, w, zeta: complex) -> float:
    """Antipodal reality partner: -log h_U at (z, w, -1/conj(zeta))."""
    zeta = _off_zero(zeta, "the antipode of zeta = 0 lies outside chart U")
    return -log_hU(z, w, -1.0 / np.conj(zeta))


def reality_residual(z, w, zeta: complex) -> float:
    """|log h_V - log h_U + log |g_UV|^2| at a smooth-product point."""
    pt = product_to_chart(z, w, zeta)
    return abs(
        log_hV(z, w, zeta)
        - log_hU(z, w, zeta)
        + log_gUV_sq(pt.v, pt.xi, pt.zeta)
    )


def log_hU_field(n: int) -> ScalarField:
    """log h_U as a scalar field on (m, 4n + 2) batches of real twistor coordinates."""
    model = FlatModel(n)

    def value(p):
        z, w = model.to_complex(p[..., : model.dim])
        return _log_hU(z, w, p[..., model.dim], p[..., model.dim + 1])

    return ScalarField(fn=value, dim=total_dim(n))


def dbar_scalar(n: int, p, tangent) -> complex:
    """(0,1) part of d(log h_U) on a real tangent: (df(T) + i df(ST))/2."""
    p = np.asarray(p, dtype=float)
    field = log_hU_field(n)
    grad = fd_gradient(field, p, _DBAR_SCHEME)
    s_mat = twistor_structure(n)(p)
    t = np.asarray(tangent, dtype=float)
    return complex(0.5 * (grad @ t + 1j * (grad @ (s_mat @ t))))


def dbar_display_residual(n: int, z, w, zeta: complex, tangent) -> float:
    """Check the closed-form (0,1) derivative of log h_U on a real tangent.

    displayed: (1/2) sum_i [z_i w_i dconj(zeta) + z_i dconj(z_i)
               - w_i dconj(w_i) + conj(zeta) d(z_i w_i)].
    """
    model = FlatModel(n)
    z, w = _cvec(z, "z"), _cvec(w, "w")
    zeta = complex(zeta)
    p = pack_point(model, z, w, zeta)
    t = np.asarray(tangent, dtype=float)
    tz, tw = model.to_complex(t[: model.dim])
    tzeta = complex(t[model.dim], t[model.dim + 1])
    displayed = 0.5 * np.sum(
        z * w * np.conj(tzeta)
        + z * np.conj(tz)
        - w * np.conj(tw)
        + np.conj(zeta) * (w * tz + z * tw)
    )
    return abs(dbar_scalar(n, p, t) - displayed)


def flat_reference_curvature(n: int) -> FormValue:
    """Exact curvature of the half-rotation bundle on flat space.

    omega1 + dd^c(mu) for the w-only rotation: sum_i dx_i ^ dy_i taken
    with weight +1 on each z-plane and -1 on each w-plane.
    """
    model = FlatModel(n)
    entries = {}
    for i in range(n):
        entries[model.z_slots(i)] = 1.0
        entries[model.w_slots(i)] = -1.0
    return FormValue.from_dict(2, model.dim, entries)


def _embedded_reference(n: int) -> FormValue:
    dim = total_dim(n)
    mat = np.zeros((dim, dim))
    mat[: 4 * n, : 4 * n] = 2.0 * flat_reference_curvature(n).as_matrix()
    return FormValue.from_matrix(mat)


def _max_abs(form, reference=0.0):
    """max |component - reference| of one form (a float) or of each row of a batch (an array)."""
    comps = form.comps if isinstance(form, FormValue) else form
    out = np.max(np.abs(comps - reference), axis=-1)
    return float(out) if out.ndim == 0 else out


def hermitian_curvature_residual(n: int, z, w, zeta):
    """Deviation of dd^c(log h_U) in the twistor structure from 2x the flat curvature.

    The reference form has no dzeta components; the residual is the
    max-abs deviation over all components of the full form.  One point
    gives a float; a batch (z, w of shape (k, n), zeta (k,)) gives the
    (k,) residuals from one ddc call.
    """
    model = FlatModel(n)
    p = pack_point(model, z, w, zeta)
    got = ddc(log_hU_field(n), twistor_structure(n), p, _DDC_OUTER, _DDC_INNER)
    return _max_abs(got, _embedded_reference(n).comps)


# -- curvature as a form field on real coordinates ------------------------------------


def curvature_FZ_field(n: int) -> FormField:
    """F_Z on the real twistor coordinates: J^T C J, C = fz_coefficients, J = chart_jacobian."""
    model = FlatModel(n)
    rows, cols = _pair_indices(total_dim(n))

    def value(p) -> np.ndarray:
        z, w, zeta = unpack_point(model, p)
        v, xi = _chart_coords(z, w, zeta)
        jac = chart_jacobian(model, p)
        return (jac.transpose(0, 2, 1) @ fz_coefficients(v, xi, zeta) @ jac)[:, rows, cols]

    return FormField(
        fn=value,
        degree=2,
        dim=total_dim(n),
        clearance=lambda p: float(np.hypot(p[-2], p[-1])),
    )


def fz_closedness_residual(n: int, z, w, zeta):
    """max |d F_Z| components at the given point (finite differences).

    One point gives a float; a batch (z, w of shape (k, n), zeta (k,))
    gives the (k,) residuals from one ext_deriv call.
    """
    model = FlatModel(n)
    p = pack_point(model, z, w, zeta)
    return _max_abs(ext_deriv(curvature_FZ_field(n), p, _CLOSEDNESS_SCHEME))
