"""Contact geometry of the unit 3-sphere and its cyclic quotients.

Points of S^3 in R^4 = C^2 are plain numpy arrays ``(x1, y1, x2, y2)`` with
``z = x1 + i y1`` and ``w = x2 + i y2``.  One family of contact forms is
supported on the sphere: the ``ellipsoid`` form, pulled back from the
ellipsoid with capacities ``(a, b)``, whose Reeb flow rotates the z-plane at
angular rate ``2*pi/a`` and the w-plane at ``2*pi/b``, entirely on the unit
sphere.  ``round``, the standard Liouville form with the Hopf flow
``(z,w) -> (e^{2it}z, e^{2it}w)``, is the ellipsoid E(pi, pi) and is stored
as such.

A quotient by the free Z_p action ``(z, w) -> (e^{2pi i/p} z, e^{2pi i q/p} w)``
turns the system into a lens space; points are always stored as lifts to S^3
and lens-space equality is tested through the deck orbit.  S^3 itself is the
quotient L(1, 1), the lens of every system that is built without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionViolation, ReebkitError
from .integrate import dopri45

SPHERE_TOL = 1e-12
TANGENT_TOL = 1e-10
DECK_TOL = 1e-9  # largest distance at which ``lens_equivalent`` matches two points
_NUMERIC_FLOW_TOL = 1e-10  # tolerance per unit time of ``_numeric_flow``
_MAX_ORDER = 2**53  # largest lens order p; a float holds every integer up to it


@dataclass(frozen=True)
class LensParams:
    """Coprime integers ``p >= q >= 1`` describing the cyclic quotient."""

    p: int
    q: int

    def __post_init__(self):
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in (self.p, self.q)):
            raise PreconditionViolation(f"p and q must be integers, got ({self.p!r}, {self.q!r})")
        if self.p > _MAX_ORDER:
            raise PreconditionViolation(f"p must be at most 2**53, got a {self.p.bit_length()}-bit p")
        if self.p < 1 or not (1 <= self.q <= self.p):
            raise PreconditionViolation(f"need p >= 1 and 1 <= q <= p, got ({self.p}, {self.q})")
        if math.gcd(self.p, self.q) != 1:
            raise PreconditionViolation(f"p and q must be coprime, got ({self.p}, {self.q})")


@dataclass(frozen=True)
class ContactSystem:
    """A contact form on the lens space L(p, q); ``lens=None`` means S^3, stored as L(1, 1).

    ``family="round"`` is the ellipsoid E(pi, pi), stored as such; its given
    capacities are replaced.
    """

    family: str = "round"
    a: float = 1.0
    b: float = 1.0
    lens: Optional[LensParams] = None

    def __post_init__(self):
        if self.lens is None:
            object.__setattr__(self, "lens", LensParams(1, 1))
        if self.family == "round":
            for field, value in (("family", "ellipsoid"), ("a", math.pi), ("b", math.pi)):
                object.__setattr__(self, field, value)
        if self.family != "ellipsoid":
            raise PreconditionViolation(f"unknown family {self.family!r}")
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise PreconditionViolation(
                f"capacities a, b must be positive and finite, got ({self.a}, {self.b})"
            )
        if not all(math.isfinite(2.0 * math.pi / c) for c in (self.a, self.b)):
            raise PreconditionViolation(f"capacities ({self.a}, {self.b}) overflow the rate 2 pi / c")

    @property
    def p(self) -> int:
        return self.lens.p

    @property
    def q(self) -> int:
        return self.lens.q

    def plane_rates(self) -> tuple[float, float]:
        """Angular rates of the Reeb rotation in the z- and w-planes."""
        return 2.0 * math.pi / self.a, 2.0 * math.pi / self.b


def system_to_json(sys: ContactSystem) -> dict:
    """JSON record of the system; S^3, L(1, 1), is written without a ``lens``."""
    out: dict = {"family": sys.family, "a": sys.a, "b": sys.b}
    if sys.p > 1:
        out["lens"] = {"p": sys.lens.p, "q": sys.lens.q}
    return out


def system_from_json(data) -> ContactSystem:
    """The system of a decoded JSON config; a missing or null ``lens`` means S^3.

    Configs come from outside the program, so every wrong shape raises
    ``PreconditionViolation``.
    """
    if not isinstance(data, dict) or "family" not in data:
        raise PreconditionViolation("config must be a JSON object with a 'family'")
    lens = data.get("lens")
    if lens is not None:
        if not isinstance(lens, dict) or not {"p", "q"} <= lens.keys():
            raise PreconditionViolation(f"lens must be an object with p and q, got {lens!r}")
        lens = LensParams(lens["p"], lens["q"])
    a, b = data.get("a", 1.0), data.get("b", 1.0)
    if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in (a, b)):
        raise PreconditionViolation(f"capacities a, b must be numbers, got ({a!r}, {b!r})")
    try:
        a, b = float(a), float(b)
    except OverflowError as exc:
        raise PreconditionViolation("capacities a, b must be finite numbers") from exc
    return ContactSystem(family=data["family"], a=a, b=b, lens=lens)


# ---------------------------------------------------------------------------
# points and tangent vectors


def check_point(pt) -> np.ndarray:
    pt = np.asarray(pt, dtype=float)
    if pt.shape != (4,):
        raise PreconditionViolation("points are length-4 arrays")
    # written so that a NaN coordinate fails it
    if not abs(pt @ pt - 1.0) <= SPHERE_TOL:
        raise PreconditionViolation(f"point is off the unit sphere by {abs(pt @ pt - 1.0):.3e}")
    return pt


def check_tangent(pt, v) -> np.ndarray:
    pt = check_point(pt)
    v = np.asarray(v, dtype=float)
    if v.shape != (4,):
        raise PreconditionViolation("tangent vectors are length-4 arrays")
    norm = float(np.linalg.norm(v))
    # written so that a NaN or an infinite entry fails it
    if not (norm < math.inf and abs(pt @ v) <= TANGENT_TOL * max(1.0, norm)):
        raise PreconditionViolation(f"vector is not tangent to the sphere (<pt, v> = {pt @ v:.3e})")
    return v


def to_complex(pt) -> tuple[complex, complex]:
    pt = np.asarray(pt, dtype=float)
    return complex(pt[0], pt[1]), complex(pt[2], pt[3])


def from_complex(z: complex, w: complex) -> np.ndarray:
    return np.array([z.real, z.imag, w.real, w.imag])


_I_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])


def ambient_rotation(v: np.ndarray) -> np.ndarray:
    """Multiplication by i on C^2 in real coordinates, on the last axis."""
    return v[..., [1, 0, 3, 2]] * _I_SIGNS


def section_W(pts: np.ndarray) -> np.ndarray:
    """The global non-vanishing contact-plane section (z, w) -> (-conj w, conj z)."""
    return np.stack([-pts[..., 2], pts[..., 3], pts[..., 0], -pts[..., 1]], axis=-1)


def tangent_basis(pt) -> np.ndarray:
    """Three orthonormal vectors spanning the tangent space at ``pt``."""
    pt = check_point(pt)
    idx = int(np.argmax(np.abs(pt)))
    cols = [e for i, e in enumerate(np.eye(4)) if i != idx]
    basis = []
    for c in cols:
        v = c - (c @ pt) * pt
        for b in basis:
            v = v - (v @ b) * b
        n = np.linalg.norm(v)
        if n < 1e-8:
            raise ReebkitError("degenerate tangent basis")
        basis.append(v / n)
    return np.array(basis)


# ---------------------------------------------------------------------------
# the contact form and its differential
#
# The kernels act on rows: ``pts``, ``us`` and ``vs`` are (n, 4) arrays of
# base points and tangent vectors, and the result is one value per row.
# They do not check their input; the scalar ``*_eval`` functions do.


def _lambda0_cols(x, v):
    # x and v are the four columns of the base points and of the vectors
    return 0.5 * (x[0] * v[1] - x[1] * v[0] + x[2] * v[3] - x[3] * v[2])


def _H_cols(sys: ContactSystem, x):
    # lambda = lambda0 / H
    return (math.pi / sys.a) * (x[0] ** 2 + x[1] ** 2) + (math.pi / sys.b) * (x[2] ** 2 + x[3] ** 2)


def _lambda_rows(sys: ContactSystem, pts: np.ndarray, vs: np.ndarray) -> np.ndarray:
    return _lambda0_cols(pts.T, vs.T) / _H_cols(sys, pts.T)


def _dlambda_cols(sys: ContactSystem, x, u, v):
    """(d(1/H) ^ lambda0 + omega0 / H)(u, v), which is dlambda(u, v), on the four columns of each.

    The columns broadcast, so one constant along an axis may have length 1
    there.  The gradient of H is paired with u and v column by column, left
    to right: the sums of ``np.sum(grad * us, axis=1)`` over the four columns,
    bit for bit up to the sign of an exact zero, without (n, 4) temporaries.
    """
    H = _H_cols(sys, x)
    H2 = H**2
    ka, kb = 2 * math.pi / sys.a, 2 * math.pi / sys.b
    g0, g1, g2, g3 = ka * x[0], ka * x[1], kb * x[2], kb * x[3]
    dfu = -(g0 * u[0] + g1 * u[1] + g2 * u[2] + g3 * u[3]) / H2
    dfv = -(g0 * v[0] + g1 * v[1] + g2 * v[2] + g3 * v[3]) / H2
    # the standard symplectic form dx1^dy1 + dx2^dy2
    omega0 = u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]
    return dfu * _lambda0_cols(x, v) - dfv * _lambda0_cols(x, u) + omega0 / H


def _dlambda_rows(sys: ContactSystem, pts, us, vs) -> np.ndarray:
    """dlambda(u, v) on each row of ``pts``, ``us`` and ``vs``, by ``_dlambda_cols``."""
    return _dlambda_cols(sys, tuple(pts.T), tuple(us.T), tuple(vs.T))


def lambda0_eval(pt, v) -> float:
    """The Liouville form (x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2)/2 on a tangent vector."""
    v = check_tangent(pt, v)
    return _lambda0_cols(np.asarray(pt, dtype=float), v)


def lambda_eval(sys: ContactSystem, pt, v) -> float:
    """The system's contact form evaluated on a tangent vector."""
    v = check_tangent(pt, v)
    return _lambda_rows(sys, np.asarray(pt, dtype=float)[None], v[None])[0]


def dlambda_eval(sys: ContactSystem, pt, u, v) -> float:
    """d(lambda) on a pair of tangent vectors at ``pt``."""
    u = check_tangent(pt, u)
    v = check_tangent(pt, v)
    return _dlambda_rows(sys, np.asarray(pt, dtype=float)[None], u[None], v[None])[0]


# ---------------------------------------------------------------------------
# the Reeb vector field


def _reeb_rows(sys: ContactSystem, pts: np.ndarray) -> np.ndarray:
    """The toric rotation field at each row of ``pts``: i z and i w at the plane rates."""
    w1, w2 = sys.plane_rates()
    return ambient_rotation(pts) * np.array([w1, w1, w2, w2])


def reeb_vector(sys: ContactSystem, pt) -> np.ndarray:
    """The Reeb vector field at ``pt``: the toric rotation field, i z and i w at the plane rates.

    ``_solved_reeb_vector`` is its independent cross-check.
    """
    return _reeb_rows(sys, check_point(pt)[None])[0]


def _solved_reeb_vector(sys: ContactSystem, pt) -> np.ndarray:
    """The Reeb field solved from its defining equations, the reference for ``reeb_vector``.

    i_R dlambda = 0 and lambda(R) = 1 are solved as a least-squares system in
    an orthonormal tangent frame.
    """
    pt = check_point(pt)
    # i_R dlambda = 0 against every tangent basis vector plus lambda(R) = 1;
    # the dlambda rows have rank 2, the normalization row completes them
    basis = tangent_basis(pt)
    rows = np.empty((4, 3))
    rhs = np.array([0.0, 0.0, 0.0, 1.0])
    for j in range(3):
        rows[0, j] = dlambda_eval(sys, pt, basis[j], basis[0])
        rows[1, j] = dlambda_eval(sys, pt, basis[j], basis[1])
        rows[2, j] = dlambda_eval(sys, pt, basis[j], basis[2])
        rows[3, j] = lambda_eval(sys, pt, basis[j])
    coef, residual, rank, svals = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < 3 or svals[-1] < 1e-10 * svals[0]:
        raise ReebkitError("singular linear system while solving for the Reeb field")
    R = coef @ basis
    defect = np.linalg.norm(rows @ coef - rhs)
    if defect > 1e-8 * max(1.0, float(np.linalg.norm(R))):
        raise ReebkitError("solved field does not satisfy the defining equations")
    return R


# ---------------------------------------------------------------------------
# flows


def _turn(u: complex, rate: float, t: float) -> complex:
    """The plane coordinate ``u`` rotated for time ``t`` at angular ``rate``."""
    return u * complex(math.cos(rate * t), math.sin(rate * t))


def _turn_table(sys: ContactSystem, T: float, n: int) -> list[list[np.ndarray]]:
    """The columns [cos(rate t), sin(rate t)] of ``math``, t = T j / n, j = 0..n, per plane rate."""
    ts = T * np.arange(n + 1) / n
    table = []
    for rate in sys.plane_rates():
        angles = (rate * ts).tolist()
        table.append([np.fromiter(map(fn, angles), float, n + 1) for fn in (math.cos, math.sin)])
    return table


def _turn_rows(table: list[list[np.ndarray]], vs: np.ndarray) -> np.ndarray:
    """Each row of ``vs`` turned on the ``_turn_table`` ``table``, shape (len(vs), n + 1, 4).

    The float operations are those of ``_turn`` at time T * j / n on each
    plane coordinate, cos and sin included, so a turned point equals the
    scalar ``flow`` bit for bit.  The flow is linear on C^2, so the same
    kernel turns tangent vectors: it is its own linearization.
    """
    out = np.empty((len(vs), len(table[0][0]), 4))
    for col, (c, s) in zip((0, 2), table):
        x, y = vs[:, col, None], vs[:, col + 1, None]
        out[:, :, col] = x * c - y * s
        out[:, :, col + 1] = x * s + y * c
    return out


def _project_sphere(y: np.ndarray) -> np.ndarray:
    return y / np.linalg.norm(y)


def flow(sys: ContactSystem, pt, t: float) -> np.ndarray:
    """Time-``t`` Reeb flow of ``pt``: the z- and w-planes turned at the plane rates.

    A time whose turn max(w1, w2) |t| is not finite, a non-finite time among
    them, is refused.  ``_numeric_flow`` is its independent cross-check.
    """
    w1, w2 = sys.plane_rates()
    if not math.isfinite(max(w1, w2) * abs(t)):
        raise PreconditionViolation(f"flow over time {t:g} turns a plane by a non-finite angle")
    pt = check_point(pt)
    if t == 0.0:
        return pt.copy()
    z, w = to_complex(pt)
    return from_complex(_turn(z, w1, t), _turn(w, w2, t))


def _numeric_flow(sys: ContactSystem, pt, t: float) -> np.ndarray:
    """Time-``t`` Reeb flow of ``pt`` integrated numerically, the reference for ``flow``.

    The adaptive stepper integrates the Reeb field with post-step
    renormalization to the sphere (error bound ~ ``_NUMERIC_FLOW_TOL`` per
    unit time).
    """
    pt = check_point(pt)
    if t == 0.0:
        return pt.copy()
    w1, w2 = sys.plane_rates()

    def rhs(_t, y):
        # the projected point is on the sphere: no need for reeb_vector's check
        return _reeb_rows(sys, _project_sphere(y))

    res = dopri45(
        rhs,
        0.0,
        pt,
        t,
        rtol=_NUMERIC_FLOW_TOL,
        atol=_NUMERIC_FLOW_TOL,
        project=_project_sphere,
        max_step=0.5 / max(w1, w2),
    )
    return res.y_end


# ---------------------------------------------------------------------------
# the deck action


def _deck_turns(L: LensParams, k: int) -> tuple[complex, complex]:
    """The unit factors e^{2 pi i k/p} and e^{2 pi i k q/p} of the k-th deck power on z and w."""
    k = k % L.p
    az, aw = 2.0 * math.pi * k / L.p, 2.0 * math.pi * k * L.q / L.p
    return complex(math.cos(az), math.sin(az)), complex(math.cos(aw), math.sin(aw))


def deck_action(L: LensParams, k: int, pt) -> np.ndarray:
    """Apply the k-th power of the deck transformation generator."""
    z, w = to_complex(pt)
    turn_z, turn_w = _deck_turns(L, k)
    return from_complex(z * turn_z, w * turn_w)


def lens_equivalent(L: LensParams, pt1, pt2) -> bool:
    """True when some deck power carries ``pt1`` to ``pt2`` within ``DECK_TOL``."""
    pt1 = check_point(pt1)
    pt2 = check_point(pt2)
    for k in range(L.p):
        if np.linalg.norm(deck_action(L, k, pt1) - pt2) <= DECK_TOL:
            return True
    return False
