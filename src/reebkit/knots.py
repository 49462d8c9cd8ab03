"""Monodromy, self-linking, slope arithmetic, and lens-space classification.

The binding knot of a lens space L(p, q) is the image of the z-circle; it
bounds an explicit immersed disk whose boundary covers it p:1.  The
self-linking number of the binding is computed both from the closed formula
sl = p * wind and by numerical phase tracking along a boundary collar of
that disk.

``pdisk_columns`` is the one parametrization of that disk: points, r- and
theta-derivatives as columns, which ``pdisk_arrays`` packs; at any w-phase it
is the page of ``section``.  Its radial profile ``disk_profile`` is the same
for every lens, so only ``binding_sl_numeric`` reads the order p.  The contact
form and the global section W it is measured against live in ``geometry``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolation
from .geometry import LensParams, ambient_rotation, section_W
from .index import wind_relative


# ---------------------------------------------------------------------------
# integer arithmetic of windings and slopes


def monodromy_from_winding(p: int, w: int) -> int:
    """Reduce a section winding to its residue class in {0, ..., p-1}."""
    if p < 1:
        raise PreconditionViolation("p must be >= 1")
    return w % p


def lens_binding_monodromy(L: LensParams) -> int:
    """Monodromy class of the binding circle of L(p, q): (-q) mod p."""
    return (-L.q) % L.p


def self_linking_from_winding(p: int, wind: int) -> int:
    """Self-linking of an order-p knot from the relative winding in a disk frame."""
    if p < 1:
        raise PreconditionViolation("p must be >= 1")
    return p * wind


def slope_intersection(p: int, q: int, p2: int, q2: int) -> int:
    """Unsigned intersection number of torus curves of slopes q/p and q2/p2."""
    return abs(p2 * q - p * q2)


def lens_homeomorphic(p: int, q1: int, q2: int) -> bool:
    """Whether L(p, q1) and L(p, q2) are homeomorphic: q1 = +-q2^{+-1} mod p."""
    if p == 1:
        return True
    q1 %= p
    q2 %= p
    if q1 == q2 % p or q1 == (-q2) % p:
        return True
    return (q1 * q2) % p in (1 % p, (-1) % p)


def _square_multiples(p: int, q: int) -> set[int]:
    """The residues +-k^2 q mod p for 1 <= k < p."""
    return {(sign * k * k * q) % p for k in range(1, p) for sign in (1, -1)}


def lens_homotopy_equivalent(p: int, q1: int, q2: int) -> bool:
    """Whether L(p, q1) and L(p, q2) are homotopy equivalent: q1 = +-k^2 q2 mod p."""
    return p == 1 or q1 % p in _square_multiples(p, q2)


def coprime_residues(p: int) -> list[int]:
    return [q for q in range(1, p) if math.gcd(q, p) == 1] or [1]


def classification_tables(p: int) -> dict:
    """Homeomorphism / homotopy-equivalence matrices over coprime residues."""
    if p < 2:
        raise PreconditionViolation("classification tables need p >= 2")
    qs = coprime_residues(p)
    homeo = [[lens_homeomorphic(p, a, b) for b in qs] for a in qs]
    squares = {b: _square_multiples(p, b) for b in qs}
    homot = [[a in squares[b] for b in qs] for a in qs]

    def classes(matrix):
        seen: list[list[int]] = []
        for i, a in enumerate(qs):
            for group in seen:
                if matrix[i][qs.index(group[0])]:
                    group.append(a)
                    break
            else:
                seen.append([a])
        return seen

    return {
        "p": p,
        "residues": qs,
        "homeomorphic": homeo,
        "homotopy_equivalent": homot,
        "homeomorphism_classes": classes(homeo),
        "homotopy_classes": classes(homot),
    }


@dataclass(frozen=True)
class KnotData:
    """Invariant package of an order-p rational unknot."""

    p: int
    monodromy: int
    sl: int

    def __post_init__(self):
        if self.p < 1:
            raise PreconditionViolation("p must be >= 1")
        if self.p > 1 and math.gcd(self.monodromy % self.p, self.p) != 1:
            raise PreconditionViolation("monodromy must be invertible mod p")
        if self.sl % self.p != 0:
            raise PreconditionViolation("self-linking of an order-p knot is divisible by p")


def binding_knot_data(L: LensParams) -> KnotData:
    """Invariants of the binding circle of L(p, q): mon = -q, sl = -p."""
    return KnotData(L.p, lens_binding_monodromy(L), self_linking_from_winding(L.p, -1))


# ---------------------------------------------------------------------------
# the explicit spanning disk


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_deriv(u: np.ndarray) -> np.ndarray:
    inside = (u > 0.0) & (u < 1.0)
    return np.where(inside, 6.0 * u * (1.0 - u), 0.0)


BLEND_LO, BLEND_HI = 0.2, 0.8  # the radii between which the disk profile blends


def disk_profile(r):
    """|z| of the spanning disk at radius r, the same for every lens.

    It interpolates between f(r) = r near the center and
    f(r) = cos(pi/2 (1 - r)) near the boundary with a cubic smoothstep
    blend on [``BLEND_LO``, ``BLEND_HI``].
    """
    r = np.asarray(r, dtype=float)
    s = _smoothstep((r - BLEND_LO) / (BLEND_HI - BLEND_LO))
    return (1.0 - s) * r + s * np.cos(0.5 * math.pi * (1.0 - r))


def disk_profile_deriv(r):
    """The r-derivative of ``disk_profile``."""
    r = np.asarray(r, dtype=float)
    u = (r - BLEND_LO) / (BLEND_HI - BLEND_LO)
    s = _smoothstep(u)
    ds = _smoothstep_deriv(u) / (BLEND_HI - BLEND_LO)
    g2 = np.cos(0.5 * math.pi * (1.0 - r))
    dg2 = 0.5 * math.pi * np.sin(0.5 * math.pi * (1.0 - r))
    return (1.0 - s) + s * dg2 + ds * (g2 - r)


def pdisk_columns(r, theta, phase: float):
    """The lifted disk's points, r- and theta-derivatives, as three 4-tuples of columns.

    The columns broadcast over (r, theta), each with only the axes it varies on
    (the w-columns depend on r alone; d_theta's are one zero), at w-phase ``phase``.
    """
    r = np.asarray(r, dtype=float)
    if not (0.0 <= r.min() and r.max() <= 1.0):
        raise PreconditionViolation("need 0 <= r <= 1")
    f = disk_profile(r)
    df = disk_profile_deriv(r)
    g = np.sqrt(np.maximum(1.0 - f * f, 0.0))
    dg = -f * df / np.maximum(g, 1e-15)
    cp, sp = math.cos(phase), math.sin(phase)
    c, s = np.cos(theta), np.sin(theta)
    x, y = f * c, f * s
    zero = np.zeros((1,) * x.ndim)
    return (x, y, g * cp, g * sp), (df * c, df * s, dg * cp, dg * sp), (-y, x, zero, zero)


def pdisk_arrays(r, theta, phase: float = 0.0):
    """``pdisk_columns`` packed as three arrays of shape ``broadcast(r, theta).shape + (4,)``."""
    cols = pdisk_columns(r, theta, phase)
    arrays = tuple(np.empty(cols[0][0].shape + (4,)) for _ in cols)
    for arr, group in zip(arrays, cols):
        arr[..., 0], arr[..., 1], arr[..., 2], arr[..., 3] = group
    return arrays


_SL_SAMPLES, _SL_COLLAR = 4096, 1e-3  # binding_sl_numeric's collar circle r = 1 - _SL_COLLAR


@functools.cache
def _collar_winding() -> int:
    """Relative winding of the disk's radial vector against W on the collar circle.

    The disk, its collar circle and W are the same for every lens, so the
    winding is computed on the first call and shared by every later one.
    """
    thetas = 2.0 * math.pi * np.arange(_SL_SAMPLES) / _SL_SAMPLES
    pts, rad, _ = pdisk_arrays(1.0 - _SL_COLLAR, thetas)
    # W and iW are orthogonal to the point and to i pt, the Reeb direction of
    # the standard form, so the dot products read the radial vector's
    # contact-plane part without projecting it there first
    e1 = section_W(pts)
    e2 = ambient_rotation(e1)
    x_coords = np.tile([1.0, 0.0], (_SL_SAMPLES, 1))
    n_coords = np.stack([np.sum(rad * e1, axis=1), np.sum(rad * e2, axis=1)], axis=1)
    return wind_relative(n_coords, x_coords)


def binding_sl_numeric(p: int) -> int:
    """Self-linking of the binding of L(p, q) from phase tracking along a boundary collar.

    The pushed-forward global section is compared against the radial
    derivative of the disk on the collar circle r = 1 - ``_SL_COLLAR``; the
    self-linking number is p times their relative winding.  That winding
    reads neither p nor the system, so ``_collar_winding`` computes it
    numerically once per process, on the first call.
    """
    return self_linking_from_winding(p, _collar_winding())
