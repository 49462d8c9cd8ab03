"""Disk-like global surfaces of section, return maps, and the GSS verifier.

The page is the slice {arg(w) = 0} closed up with the binding circle
{w = 0}; on a quotient by Z_p the p slices {2 pi j / p} project to a single
page, an immersed disk whose boundary covers the binding p:1.  The Reeb flow
turns the z- and w-planes at the constant rates w1 and w2, so it turns each
page rigidly onto the next and one page serves for all: every page function
takes the system alone.  Every first return to the page takes level / w2
with level = 2 pi / p and is one rigid rotation of the disk, the same for
every start: ``_returns``, the only code that turns a page point, forms it
once per call.  An orbit of period T crosses the page w2 T / level times,
its linking number with the binding.  This module takes no flow from
``geometry`` but the numeric reference ``_numeric_flow``: the reference
``_first_crossing`` scans it for its crossings and refines each in time with
``brentq``, this module's port of scipy's Brent solver, and ``page_coords``
reads the flowed point back with the same solver.

The form is toric, so the pulled-back dlambda depends on r alone: a rigid
rotation preserves it, the centre is the fixed point, and by Stokes the
page's area constant is 1 + the action of the page boundary.  The verifier
reads all three so; ``disk_area_bound`` and ``quad_dlambda_area`` are the
2d quadratures that the tests hold them against.

The page is sampled through the disk parametrization ``knots.pdisk_columns``,
alike for every lens, and the contact form and dlambda on those samples are
the kernels of ``geometry``; this module defines neither.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IllConditioned, IntegrationFailure, PreconditionViolation
from .geometry import (
    ContactSystem,
    LensParams,
    _deck_turns,
    _dlambda_cols,
    _lambda_rows,
    _numeric_flow,
    check_point,
    deck_action,
    to_complex,
)
from .integrate import _MAX_STEPS
from .knots import (
    BLEND_HI,
    BLEND_LO,
    binding_sl_numeric,
    disk_profile,
    lens_binding_monodromy,
    pdisk_arrays,
    pdisk_columns,
)
from .orbits import ClosedOrbit, _check_iterate, _orbit_lift, catalog, principal_orbits

PAGE_TOL = 1e-8  # largest miss of the page that ``page_coords`` reads
_R_LO, _R_HI = 0.05, 0.95  # radii between which ``sample_starts`` draws return starts

log = logging.getLogger("reebkit")


# ---------------------------------------------------------------------------
# the page


def page_point(r: float, theta: float) -> np.ndarray:
    """Lift of the page point with polar coordinates (r, theta), by ``pdisk_arrays``."""
    return pdisk_arrays(r, theta)[0]


# ---------------------------------------------------------------------------
# root finding

_BRENT_RTOL = 4.0 * 2.0**-52  # 4 * eps
_BRENT_ITER = 100


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of ``f`` in the bracket [a, b] by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 4) with scipy's
    defaults: relative tolerance 4·eps and 100 iterations.  It evaluates f
    at the same points in the same order and returns the same root, bit
    for bit, while scipy's C build does no FMA contraction.  It raises
    ``ValueError`` for ``xtol <= 0``, a bracket whose ends have the same
    sign and a NaN value of f, and ``RuntimeError`` when it does not
    converge.  A division by zero, where C gets an infinity or NaN and so
    rejects the step, takes the bisection step.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")

    def fval(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = fval(xpre)
    fcur = fval(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        step = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                bound = 3 * abs(sbis) - delta
                step = 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound)
            except ZeroDivisionError:
                pass
        if step:
            # good short step
            spre, scur = scur, stry
        else:
            # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fval(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_ITER} iterations.")


def _profile_inverse(value: float) -> float:
    """The radius r with ``disk_profile(r) == value``, by ``brentq`` to 1e-14 in r."""
    value = min(max(value, 0.0), 1.0)
    if value <= 0.0:
        return 0.0
    if value >= 1.0:
        return 1.0
    return brentq(lambda r: float(disk_profile(r)) - value, 0.0, 1.0, xtol=1e-14)


def _deck_index(lens: LensParams, j: int) -> int:
    """The deck power that carries the page's slice j (w-phase j levels on) to the page."""
    return (-(j % lens.p) * pow(lens.q, -1, lens.p)) % lens.p


def page_coords(sys: ContactSystem, pt) -> tuple[float, float]:
    """Polar page coordinates of a lifted point lying on the page's deck orbit.

    A point on another slice of the deck orbit is moved to the page's slice
    by the deck action first; one more than ``PAGE_TOL`` off every slice is
    refused.  The radius inverts ``disk_profile`` with ``brentq``.
    """
    pt = check_point(pt)
    p = sys.p
    z, w = to_complex(pt)
    level = 2.0 * math.pi / p
    off = math.atan2(w.imag, w.real) / level
    j = round(off)
    if abs(off - j) * level > PAGE_TOL and abs(w) > PAGE_TOL:
        raise PreconditionViolation("point does not lie on the page")
    if j % p != 0:
        z, w = to_complex(deck_action(sys.lens, _deck_index(sys.lens, j), pt))
    r = _profile_inverse(abs(z))
    return r, math.atan2(z.imag, z.real)


# ---------------------------------------------------------------------------
# crossings and the return map


def _w_phase(pt: np.ndarray) -> float:
    return math.atan2(pt[3], pt[2])


def _scan_step(sys: ContactSystem, level: float, time_budget: float) -> float:
    """The crossing scan's time step, small against the phase rate.

    A scan of ``time_budget`` that needs more than ``_MAX_STEPS`` steps is
    refused.
    """
    w1, w2 = sys.plane_rates()
    dt = level / max(w1, w2) / 16.0
    if time_budget / dt > _MAX_STEPS:
        raise IntegrationFailure(
            f"return scan over {time_budget:g} needs more than {_MAX_STEPS} steps of {dt:g}"
        )
    return dt


def _first_crossing(
    sys: ContactSystem,
    pt0: np.ndarray,
    direction: int,
    level: float,
    time_budget: float,
    tol: float,
) -> tuple[float, np.ndarray]:
    """First positive time at which the numeric flow's w-phase moves by a multiple of ``level``.

    Scans the trajectory with steps small against the phase rate, each
    integrated by ``geometry._numeric_flow`` from the previous scan point,
    and refines the bracketing step with the in-package ``brentq`` to ``tol``
    in time, each evaluation integrated from the bracket's left end, so a
    scan costs O(time_budget) of integration.  It is the numeric cross-check
    of ``return_map``'s closed-form return time level / w2.  A scan of more
    than ``_MAX_STEPS`` steps is refused up front.
    """
    dt = _scan_step(sys, level, time_budget)

    def flow_for(pt: np.ndarray, t: float) -> np.ndarray:
        return _numeric_flow(sys, pt, direction * t)

    def phase_and_g(pt: np.ndarray, href: float) -> tuple[float, float]:
        # the w-phase of pt unwrapped against href, and sin(pi * levels moved)
        h = href + math.remainder(_w_phase(pt) - href, 2.0 * math.pi)
        return h, math.sin(math.pi * (h - h0) / level)

    h0 = _w_phase(pt0)
    pt_prev, t_prev, h_prev, g_prev = pt0, 0.0, h0, 0.0
    t = 0.0
    while t < time_budget:
        t = min(t_prev + dt, time_budget)
        pt = flow_for(pt_prev, t - t_prev)
        h, g = phase_and_g(pt, h_prev)
        if t_prev > 0.0 and (g == 0.0 or (g_prev != 0.0 and math.copysign(1, g) != math.copysign(1, g_prev))):
            # the bracket [t_prev, t] is integrated from its left end, pt_prev
            t_star = brentq(
                lambda tc: phase_and_g(flow_for(pt_prev, tc - t_prev), h_prev)[1],
                t_prev, t, xtol=tol,
            )
            return t_star, flow_for(pt_prev, t_star - t_prev)
        pt_prev, t_prev, h_prev, g_prev = pt, t, h, g
    raise IntegrationFailure(
        f"return failure: no page crossing within time budget {time_budget:g}"
    )


@dataclass
class ReturnRecord:
    """One application of the page return map; the return time level / w2 is positive."""

    return_time: float
    image: tuple[float, float]


def _unit_columns(thetas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The columns cos theta and sin theta of the angles ``thetas``, by ``math``."""
    return tuple(np.fromiter(map(fn, thetas), float, len(thetas)) for fn in (math.cos, math.sin))


def _returns(sys: ContactSystem, xy, direction: str) -> tuple[float, list[float]]:
    """The return time level / w2 and the image angle of each start, given as ``_unit_columns``.

    Every return keeps the radius, so only the angles are turned.  The image
    angle is atan2 of the unit vector (cos theta, sin theta) turned at w1 for
    the return time and by the deck power ``_deck_index`` of the slice it
    lands on, so a start angle of any size is reduced exactly.  Both factors
    are formed once per call and turn the unit vectors elementwise, each
    complex product formed on numpy columns as CPython forms it, re = x c - y s
    and im = x s + y c, so every image equals the scalar product's bit for
    bit.  cos, sin and atan2 stay those of ``math`` (``np.arctan2`` differs in
    the last bit on some inputs).  A system whose crossing scan
    (``_first_crossing``) over twice the return time would need more than
    ``_MAX_STEPS`` steps is refused up front: there one return turns the
    z-plane so far that the image keeps no digits.
    """
    level = 2.0 * math.pi / sys.p
    w1, w2 = sys.plane_rates()
    t_star = level / w2
    _scan_step(sys, level, 2.0 * t_star)
    sgn = 1 if direction == "forward" else -1
    turn = complex(math.cos(w1 * (sgn * t_star)), math.sin(w1 * (sgn * t_star)))
    x, y = xy
    x, y = x * turn.real - y * turn.imag, x * turn.imag + y * turn.real
    # on S^3 the deck factor is 1 + 0j, and a product with it can flip a zero's sign
    if sys.p > 1:
        deck = _deck_turns(sys.lens, _deck_index(sys.lens, sgn))[0]
        x, y = x * deck.real - y * deck.imag, x * deck.imag + y * deck.real
    return t_star, list(map(math.atan2, y.tolist(), x.tolist()))


def return_map(
    sys: ContactSystem, start: tuple[float, float], direction: str = "forward"
) -> ReturnRecord:
    """The next crossing of the page from an interior page point, in closed form.

    Every return is one rigid turn of the page disk, computed by ``_returns``
    for the one start once the start and the direction are checked.
    """
    r, theta = start
    if not (0.0 < r < 1.0):
        raise PreconditionViolation("start must be an interior page point (0 < r < 1)")
    if not math.isfinite(theta):
        raise PreconditionViolation(f"start angle must be finite, got {theta}")
    if direction not in ("forward", "backward"):
        raise PreconditionViolation("direction must be 'forward' or 'backward'")
    t_star, (angle,) = _returns(sys, _unit_columns([theta]), direction)
    return ReturnRecord(t_star, (r, angle))


def fixed_point(sys: ContactSystem) -> tuple[float, float]:
    """The page centre (0, 0), a fixed point of the forward return map.

    Every return turns the page disk rigidly about its centre
    (``_returns``), so the centre is fixed whatever the turn, the identity
    included.
    """
    return 0.0, 0.0


def linking_with_binding(sys: ContactSystem, orbit: ClosedOrbit) -> int:
    """Linking number of the orbit with the binding, in closed form.

    Off the binding the Reeb flow turns the w-plane at the constant rate w2,
    so over its (total) period T the orbit crosses the page w2 T / level
    times, all positively, with level = 2 pi / p; that count is the linking
    number.  The flow keeps |w| fixed, so an orbit whose anchor lies on the
    binding is refused, and a count more than 1e-9 relative off a whole
    number is ``IllConditioned``.
    """
    if math.hypot(orbit.anchor[2], orbit.anchor[3]) < 1e-12:
        raise PreconditionViolation("orbit coincides with the binding")
    level = 2.0 * math.pi / sys.p
    turns = sys.plane_rates()[1] * orbit.period / level
    count = round(turns)
    if abs(turns - count) > 1e-9 * max(1.0, abs(turns)):
        raise IllConditioned(f"orbit crosses the page {turns:.12g} times, not a whole number")
    return count


# ---------------------------------------------------------------------------
# areas


# Gauss-Legendre nodes and weights of order 32 on [-1, 1], symmetric about 0:
# those of numpy.polynomial.legendre.leggauss(32) bit for bit, stored so that
# importing the package does not import numpy.polynomial
_GAUSS_X_POS = [float.fromhex(h) for h in (
    "0x1.8bbc8488cc49ap-5", "0x1.27e0ea717f237p-3", "0x1.ea0f7e19c094bp-3", "0x1.53d55ce57bdf6p-2",
    "0x1.af76b57c6f8f1p-2", "0x1.038862866b29dp-1", "0x1.2ce9146962ca4p-1", "0x1.537a89c487f8ap-1",
    "0x1.76e0931d693bap-1", "0x1.96c69481c4bc5p-1", "0x1.b2e04fd686a13p-1", "0x1.caea9b4574cb9p-1",
    "0x1.deac0259f7f42p-1", "0x1.edf5518053baap-1", "0x1.f8a212714bcdcp-1", "0x1.fe995e70409b6p-1",
)]
_GAUSS_W_POS = [float.fromhex(h) for h in (
    "0x1.8b6d9eaec77a3p-4", "0x1.87bc776f8c6ccp-4", "0x1.8062fc0f6fef5p-4", "0x1.7572bdb3f6e49p-4",
    "0x1.6705e18e13ecfp-4", "0x1.553ee25ebebc3p-4", "0x1.40483e126fd0ep-4", "0x1.2854103b35e00p-4",
    "0x1.0d9b9a62cac04p-4", "0x1.e0bd76c924984p-5", "0x1.a1c6ae961fbeep-5", "0x1.5ee963a3354abp-5",
    "0x1.18c5800a35609p-5", "0x1.a0060a8531ff0p-6", "0x1.0aa3c248696dep-6", "0x1.cbf8bc743ce34p-8",
)]
_GAUSS_X = np.array([-x for x in reversed(_GAUSS_X_POS)] + _GAUSS_X_POS)
_GAUSS_W = np.array(_GAUSS_W_POS[::-1] + _GAUSS_W_POS)


def _edge_action(sys: ContactSystem, a: tuple[float, float], b: tuple[float, float]) -> float:
    """Integral of the contact form along a straight page-coordinate segment."""
    ra, ta = a
    rb, tb = b
    s = 0.5 * (_GAUSS_X + 1.0)
    pts, d_r, d_th = pdisk_arrays(ra + (rb - ra) * s, ta + (tb - ta) * s)
    vel = d_r * (rb - ra) + d_th * (tb - ta)
    vals = _lambda_rows(sys, pts, vel)
    return float(np.sum(_GAUSS_W * vals) * 0.5)


def quad_dlambda_area(sys: ContactSystem, corners: list[tuple[float, float]]) -> float:
    """dlambda-area of a small page quadrilateral via the boundary action.

    Corner angles are unwrapped relative to the first corner so a quad
    straddling the theta branch cut is handled correctly; edges must be
    shorter than a half turn.
    """
    unwrapped = [corners[0]]
    for r, th in corners[1:]:
        prev_th = unwrapped[-1][1]
        unwrapped.append((r, prev_th + math.remainder(th - prev_th, 2.0 * math.pi)))
    total = 0.0
    for a, b in zip(unwrapped, unwrapped[1:] + unwrapped[:1]):
        total += _edge_action(sys, a, b)
    return total


_FORM_MARGIN = 1e-3  # the form grid's radii stay this far inside the page


def page_form_samples(sys: ContactSystem, n_r: int, n_th: int):
    """The pulled-back area form dlambda(d_r u, d_th u) on a product grid of the interior.

    It pairs the disk's columns, so what depends on r alone is formed once per radius.
    """
    rs = np.linspace(_FORM_MARGIN, 1.0 - _FORM_MARGIN, n_r)
    ths = np.linspace(0.0, 2.0 * math.pi, n_th, endpoint=False)
    vals = _dlambda_cols(sys, *pdisk_columns(rs[:, None], ths[None, :]))
    return rs, ths, vals


def _page_form_integral(sys: ContactSystem, n_r: int, n_th: int) -> float:
    """Quadrature of |pullback of dlambda| with panels aligned to profile knots.

    The radial profile is piecewise analytic with breaks at the blend window
    endpoints; composite Simpson per panel keeps full order there.  The
    theta direction is periodic and handled by the trapezoid rule.
    """
    knots = [0.0, BLEND_LO, BLEND_HI, 1.0]
    ths = np.linspace(0.0, 2.0 * math.pi, n_th, endpoint=False)
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        rs = np.linspace(a, b, n_r + 1)
        cols = pdisk_columns(rs[:, None], ths[None, :])
        vals = np.abs(_dlambda_cols(sys, *cols))
        th_int = vals.mean(axis=1) * 2.0 * math.pi
        h = (b - a) / n_r
        weights = np.ones(n_r + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        total += float(np.sum(weights * th_int) * h / 3.0)
    return total


_AREA_REL_TOL, _AREA_MAX_LEVEL = 1e-6, 5  # disk_area_bound's refinement


def disk_area_bound(sys: ContactSystem) -> float:
    """The constant 1 + integral of |pullback of dlambda| over the page.

    The 2d quadrature is refined by grid doubling until two successive
    levels agree to ``_AREA_REL_TOL`` relative; after ``_AREA_MAX_LEVEL``
    levels (last grid 512 x 1024) it gives up, so memory stays bounded.
    """
    prev = None
    n_r, n_th = 32, 64
    for _ in range(_AREA_MAX_LEVEL):
        cur = _page_form_integral(sys, n_r, n_th)
        if prev is not None and abs(cur - prev) <= _AREA_REL_TOL * max(abs(cur), 1e-300):
            return 1.0 + cur
        prev = cur
        n_r *= 2
        n_th *= 2
    raise IntegrationFailure("quadrature did not converge under refinement")


# ---------------------------------------------------------------------------
# the verifier


def sample_starts(rng: np.random.Generator, n: int) -> tuple[list[float], list[float]]:
    """Radii and angles of page starts approximately area-uniform: uniform in (r^2, theta)."""
    r2 = rng.uniform(_R_LO**2, _R_HI**2, size=n)
    th = rng.uniform(0.0, 2.0 * math.pi, size=n)
    # np.sqrt is correctly rounded, as math.sqrt is
    return np.sqrt(r2).tolist(), th.tolist()


@dataclass(frozen=True)
class ReturnSamples:
    """The return samples of one verify, as columns, in the order of the starts.

    ``radii`` and ``thetas`` hold the page starts.  Every return keeps the
    radius and every return of one direction takes the same time, so each
    direction keeps its one return time and the image angles of the starts.
    """

    radii: list[float]
    thetas: list[float]
    forward_time: float
    forward_angles: list[float]
    backward_time: float
    backward_angles: list[float]

    def __len__(self) -> int:
        return len(self.radii)


_MAX_SAMPLES = 100_000  # return samples of one verify; all are kept until the files are written
# checks whose outcome the symmetry of the ellipsoid family fixes
_DECIDED_BY_SYMMETRY = frozenset({"gss_returns"})


def verify_gss_conditions(
    sys: ContactSystem,
    C: float,
    n_samples: int = 100,
    seed: int = 0,
) -> tuple[dict, ReturnSamples]:
    """Numerically check the disk-like global surface of section conditions.

    For the binding K of the quotient system the report contains: the
    numerically computed self-linking (expected -p), the index of K^p
    (expected >= 3), linking numbers of catalogued rotation-number-1 orbits
    with K up to the action cutoff C, forward/backward return sampling, the
    sign of dlambda over the page interior, area preservation, and the page
    area constant.  Any failed check is named in ``violated``.  Each
    principal orbit is linearized at most once per call, when first needed,
    and every index is read off that lift by the iteration formula.

    The ellipsoid form is toric and every return turns the page rigidly
    (``_returns``), so the pulled-back dlambda depends on r alone.  Where
    it is positive (``dlambda_positive``), Stokes gives its page integral as
    the action of the page boundary, and the area constant is 1 + that
    action; ``disk_area_bound`` is the 2d quadrature of the same constant.
    A rigid rotation preserves a form that does not depend on theta, so
    ``area_preservation`` bounds the theta-dependence of the sampled form,
    max over r of its spread in theta relative to max |form|.  The centre
    is the return map's fixed point.  Every return takes level / w2 > 0, so
    ``gss_returns`` cannot fail; ``decided_by_symmetry`` names such checks.

    The samples come back as a ``ReturnSamples``: the starts, and per
    direction the one return time and the image angles, with no record per
    sample; with no samples drawn the columns are empty.  A sample count
    outside [0, ``_MAX_SAMPLES``], a negative seed and an action cutoff that
    is not finite or admits too many orbits are refused before any work.
    Each stage is noted at INFO on the ``reebkit`` logger.
    """
    lifts: dict = {}  # label -> index reader of that principal orbit's lift

    def lifted_index(orbit: ClosedOrbit, k: int):
        _check_iterate(orbit, k)
        if orbit.label not in lifts:
            lifts[orbit.label] = _orbit_lift(orbit)
        return lifts[orbit.label](k * orbit.multiplicity)

    if not 0 <= n_samples <= _MAX_SAMPLES:
        raise PreconditionViolation(
            f"the sample count must be in [0, {_MAX_SAMPLES}], got {n_samples}"
        )
    if seed < 0:
        raise PreconditionViolation(f"the seed must be non-negative, got {seed}")
    lens, p = sys.lens, sys.p
    entries = catalog(sys, C)
    rng = np.random.default_rng(seed)
    report: dict = {
        "system": {
            "family": sys.family,
            "a": sys.a,
            "b": sys.b,
            "lens": {"p": lens.p, "q": lens.q},
        },
        "action_cutoff": C,
        "n_samples": n_samples,
        "seed": seed,
    }
    checks: dict[str, bool] = {}

    log.info("binding invariants")
    sl = binding_sl_numeric(p)
    K, _Kp = principal_orbits(sys)
    idx = lifted_index(K, p)
    report["binding"] = {
        "label": K.label,
        "prime_period": K.prime_period,
        "sl_numeric": sl,
        "sl_expected": -p,
        "monodromy": lens_binding_monodromy(lens),
        "monodromy_signed": -lens.q,
        "mu_cz_Kp": idx.mu,
        "rho_Kp": idx.rho,
        "degenerate": idx.degenerate,
    }
    checks["sl"] = sl == -p
    checks["index"] = idx.mu >= 3 and not idx.degenerate

    log.info("page construction")
    _rs, _ths, form = page_form_samples(sys, 101, 100)
    report["page"] = {
        "phase": 0.0,  # the page is the slice arg w = 0
        "min_transverse": sys.plane_rates()[1],
        "dlambda_min": float(form.min()),
        "dlambda_max": float(form.max()),
        "area_bound": 1.0 + _edge_action(sys, (1.0, 0.0), (1.0, 2.0 * math.pi)),
    }
    checks["dlambda_positive"] = bool(form.min() > 0.0)

    log.info("fixed point")
    fp = fixed_point(sys)
    # refuses a system past the scan's step ceiling before any sample is drawn
    fp_time, _ = _returns(sys, _unit_columns([fp[1]]), "forward")
    report["fixed_point"] = {
        "coords": [fp[0], fp[1]],
        "distance_to_center": fp[0],
        "return_time": fp_time,
    }

    log.info("catalogued orbits and linking")
    orb_rows = []
    pstar_ok = True
    for entry in entries:
        res = lifted_index(entry, 1)
        contractible = res.convention == "disk"
        row = {
            "label": entry.label,
            "multiplicity": entry.multiplicity,
            "period": entry.period,
            "rho": res.rho,
            "mu_cz": res.mu,
            "contractible": contractible,
            "in_complement": entry.label != K.label,
        }
        member = (
            row["in_complement"] and contractible and abs(res.rho - 1.0) <= 1e-6
        )
        row["rotation_one"] = member
        if member:
            lk = linking_with_binding(sys, entry)
            row["linking_with_binding"] = lk
            if lk <= 0:
                pstar_ok = False
        orb_rows.append(row)
    report["pstar"] = {
        "note": (
            "rotation-number-1 condition checked for catalogued orbits with "
            f"action <= {C:g} only"
        ),
        "orbits": orb_rows,
        "members": [r for r in orb_rows if r["rotation_one"]],
    }
    checks["pstar_linking"] = pstar_ok

    radii, thetas = [], []
    if n_samples > 0:
        log.info("return sampling")
        radii, thetas = sample_starts(rng, n_samples)
    xy = _unit_columns(thetas)
    t_fwd, fwd = _returns(sys, xy, "forward")
    t_bwd, bwd = _returns(sys, xy, "backward")
    samples = ReturnSamples(radii, thetas, t_fwd, fwd, t_bwd, bwd)
    if n_samples > 0:
        # one return time per direction decides every sample
        report["gss_sampling"] = {
            "n": n_samples,
            "forward_ok": n_samples if t_fwd > 0 else 0,
            "backward_ok": n_samples if t_bwd > 0 else 0,
        }
        checks["gss_returns"] = t_fwd > 0 and t_bwd > 0
    else:
        report["gss_sampling"] = {"status": "skipped"}

    log.info("area preservation")
    defect = float(np.ptp(form, axis=1).max() / np.abs(form).max())
    report["area_preservation"] = {"form_theta_defect": defect}
    checks["area_preservation"] = defect < 1e-4

    report["checks"] = checks
    report["decided_by_symmetry"] = sorted(_DECIDED_BY_SYMMETRY & checks.keys())
    report["violated"] = sorted(name for name, ok in checks.items() if not ok)
    report["all_pass"] = not report["violated"]
    return report, samples
