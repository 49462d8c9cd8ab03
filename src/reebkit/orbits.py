"""Closed Reeb orbits, their linearized flow in the disk frame, asymptotic-operator loops.

The supported systems have exactly two prime closed orbits, the principal
circles K = {w = 0} and K' = {z = 0}; on a quotient their prime periods
divide by the order of the deck group.  The Reeb flow is linear on C^2, so
the linearized flow along an orbit is the flow itself, in closed form; it is
read in the one frame the package builds, ``disk_frame``, by pairing with
dlambda, which vanishes on the Reeb direction, so nothing is projected to
the contact plane first.  The frame is the unitary frame of the global
section W(z, w) = (-conj(w), conj(z)) of the contact structure.  W extends
over the spanning disks of the principal circles, so the frame represents
the capping-disk trivialization class, the class in which the criterion
mu_CZ(K^p) >= 3 is read; a path in another class is ``index.prepend_loop``
of this one.  In it the linearized path is a rotation path: its rotation
number is the monodromy's exact class mod 1 moved by the whole turns of one
direction, and every iterate's index is read off it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bookkeeping import PERIOD_RESOLUTION
from .errors import DegenerateInput, GridTooCoarse, IllConditioned, PreconditionViolation
from .geometry import (
    ContactSystem,
    _dlambda_rows,
    _turn_grid,
    _turn_rows,
    _turn_table,
    ambient_rotation,
    check_point,
    deck_action,
    flow,
    section_W,
)
from .index import (
    DEGENERACY_TOL,
    MINUS_I,
    SymmetricLoop,
    SymplecticPath,
    _rotation_candidates,
    delta_phi,
    mu_tilde,
)

CLOSURE_TOL = 1e-8
_DET_TOL = 1e-6  # largest |det - 1| of a linearized path's samples before normalizing
# most iterates a catalog holds or an index is read for; C = 1e4 on L(2,1) would build 34 142
_MAX_CATALOG = 10_000
# intervals of the time grid every orbit's frame and linearized path are sampled on
_GRID_INTERVALS = 512
_SYM_TOL = 1e-6  # largest relative symmetry defect of an extracted S(t)


@dataclass(frozen=True)
class ClosedOrbit:
    """A periodic Reeb trajectory (x, T) with prime period and multiplicity.

    ``deck_power`` is the deck-group element carrying the anchor to its
    image after one prime period; it is 0 for orbits that close on the
    sphere itself, every orbit of S^3 = L(1, 1) among them.
    """

    system: ContactSystem
    anchor: np.ndarray
    prime_period: float
    multiplicity: int = 1
    deck_power: int = 0
    label: str = "K"

    def __post_init__(self):
        object.__setattr__(self, "anchor", check_point(self.anchor))
        if self.multiplicity < 1:
            raise PreconditionViolation("multiplicity must be >= 1")
        end = flow(self.system, self.anchor, self.prime_period)
        target = deck_action(self.system.lens, self.deck_power, self.anchor)
        if np.linalg.norm(end - target) > CLOSURE_TOL:
            raise PreconditionViolation(
                "orbit does not close: flow over one prime period misses the deck image "
                f"by {np.linalg.norm(end - target):.3e}"
            )

    @property
    def period(self) -> float:
        return self.multiplicity * self.prime_period

    def iterate(self, k: int) -> "ClosedOrbit":
        if k < 1:
            raise PreconditionViolation("iterate exponent must be >= 1")
        return self._repeated(self.multiplicity * k)

    def _repeated(self, multiplicity: int) -> "ClosedOrbit":
        """This orbit run ``multiplicity`` times; an iterate closes where the orbit does."""
        if multiplicity < 1:
            raise PreconditionViolation("multiplicity must be >= 1")
        out = copy.copy(self)
        object.__setattr__(out, "multiplicity", multiplicity)
        return out


def orbit_to_json(orbit: ClosedOrbit) -> dict:
    """JSON record of the orbit."""
    return {
        "label": orbit.label,
        "anchor": [float(v) for v in orbit.anchor],
        "prime_period": float(orbit.prime_period),
        "multiplicity": int(orbit.multiplicity),
        "deck_power": int(orbit.deck_power),
        "period": float(orbit.period),
    }


# ---------------------------------------------------------------------------
# the closed-orbit catalog


def principal_orbits(sys: ContactSystem) -> tuple[ClosedOrbit, ClosedOrbit]:
    """The two prime orbits: the z-circle K and the w-circle K', of periods a / p and b / p."""
    if abs(sys.a - sys.b) <= 1e-9:
        raise DegenerateInput("orbit families not isolated for a = b")
    p, q = sys.p, sys.q
    K = ClosedOrbit(sys, np.array([1.0, 0.0, 0.0, 0.0]), sys.a / p, deck_power=1 % p, label="K")
    Kp = ClosedOrbit(sys, np.array([0.0, 0.0, 1.0, 0.0]), sys.b / p, deck_power=pow(q, -1, p),
                     label="K'")
    return K, Kp


def catalog(sys: ContactSystem, C: float) -> list[ClosedOrbit]:
    """All iterates of the principal orbits with total period <= C.

    A bound that is not finite, or that admits more than ``_MAX_CATALOG``
    iterates, is refused before any orbit is built.  K and K' iterates closer
    than ``PERIOD_RESOLUTION`` in period, as ``sigma_gap`` refuses, are degenerate.
    """
    if not (0 < C < math.inf):
        raise PreconditionViolation(f"the action bound must be positive and finite, got {C}")
    K, Kp = principal_orbits(sys)
    size = math.floor(C / K.prime_period) + math.floor(C / Kp.prime_period)
    if size > _MAX_CATALOG:
        raise PreconditionViolation(
            f"action bound {C:g} admits {size} iterates, more than {_MAX_CATALOG}"
        )
    out: list[ClosedOrbit] = []
    for prime in (K, Kp):
        k = 1
        while k * prime.prime_period <= C + 1e-15:
            out.append(prime.iterate(k))
            k += 1
    out.sort(key=lambda o: o.period)
    for o1, o2 in zip(out, out[1:]):
        if o2.period - o1.period < PERIOD_RESOLUTION and o1.label != o2.label:
            raise DegenerateInput(
                f"periods {o1.period} and {o2.period} are numerically indistinguishable"
            )
    return out


# ---------------------------------------------------------------------------
# the disk frame and the linearized flow


def _frame_rows(sys: ContactSystem, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The disk frame at each row of ``pts``: e1 = W scaled to dlambda(e1, e2) = 1, and e2 = i e1."""
    w = section_W(pts)
    iw = ambient_rotation(w)
    norm = _dlambda_rows(sys, pts, w, iw)
    if np.any(norm <= 1e-12):
        raise IllConditioned("frame section degenerates along the orbit")
    scale = np.sqrt(norm)[:, None]
    return w / scale, iw / scale


def disk_frame(orbit: ClosedOrbit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unitary frame along the orbit in the capping-disk class, as arrays (points, e1, e2).

    Each has one row per time of the ``_GRID_INTERVALS``-interval grid over
    one period.  e1 is the global section W normalized so that
    dlambda(e1, e2) = 1, and e2 = i e1.  W extends over the spanning disk of
    each principal circle, so the induced class is the disk class.
    """
    pts = _turn_grid(orbit.system, orbit.anchor[None], orbit.period, _GRID_INTERVALS)[0]
    return (pts, *_frame_rows(orbit.system, pts))


def linearized_path(orbit: ClosedOrbit) -> SymplecticPath:
    """The transverse linearized flow over one period, expressed in the disk frame.

    The flow is linear, so the anchor and the frame's vectors at the anchor
    are turned on one table of cos and sin values (``_turn_table``); the
    turned anchor gives the points of ``disk_frame``, one call builds the
    frame at the anchor and along those points, and one call reads the
    turned vectors in it by pairing with dlambda.  dlambda vanishes on the
    Reeb direction, so the images need no projection to the contact plane
    first.  An orbit that turns more than pi/2 per interval of the grid,
    (w1 + w2) T / n, is refused before the frame is built: there the index
    layer's phase unwrapping refuses a rotation path, and past pi the turns
    alias.
    """
    sys = orbit.system
    n = _GRID_INTERVALS
    turn = sum(sys.plane_rates()) * orbit.period / n
    if turn > math.pi / 2:
        raise GridTooCoarse(
            f"the linearized flow of {orbit.label} turns {turn:.3g} rad per interval "
            f"of the {n}-interval grid, more than pi/2"
        )
    table = _turn_table(sys, orbit.period, n)
    anchor = orbit.anchor[None]
    pts = _turn_rows(table, anchor)[0]
    # row 0 is the frame at the anchor, the rows after it the frame along the grid
    e1, e2 = _frame_rows(sys, np.concatenate([anchor, pts]))
    u1, u2 = _turn_rows(table, np.stack([e1[0], e2[0]]))
    e1, e2 = e1[1:], e2[1:]
    # the entries (0, 0), (0, 1), (1, 0) and (1, 1) of each sample's matrix,
    # dlambda(u1, e2), dlambda(u2, e2), dlambda(e1, u1) and dlambda(e1, u2)
    us = np.stack([u1, u2, e1, e1], axis=1).reshape(-1, 4)
    vs = np.stack([e2, e2, u1, u2], axis=1).reshape(-1, 4)
    mats = _dlambda_rows(sys, np.repeat(pts, 4, axis=0), us, vs).reshape(n + 1, 2, 2)
    dets = np.linalg.det(mats)
    drift = np.max(np.abs(dets - 1.0))
    if drift > _DET_TOL:
        raise IllConditioned(f"determinant drift {drift:.3e} exceeds {_DET_TOL}")
    mats /= np.sqrt(dets)[:, None, None]
    mats[0] = np.eye(2)
    return SymplecticPath(mats)


def asymptotic_loop(path: SymplecticPath) -> SymmetricLoop:
    """Extract S(t) = -i phi'(t) phi(t)^{-1} from a linearized path.

    S is symmetric exactly when the frame is unitary; the symmetry defect is
    checked against ``_SYM_TOL`` and the symmetrized samples are returned.
    An orbit's loop is ``asymptotic_loop(linearized_path(orbit))``.
    """
    mats = path.mats
    n = path.n_intervals
    A = path.monodromy
    Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
    ext = np.empty((n + 4, 2, 2))
    ext[2 : n + 2] = mats[:n]
    ext[0] = mats[n - 2] @ Ainv
    ext[1] = mats[n - 1] @ Ainv
    ext[n + 2] = mats[0] @ A
    ext[n + 3] = mats[1] @ A
    h = 1.0 / n
    dphi = (-ext[4:] + 8 * ext[3:-1] - 8 * ext[1:-3] + ext[:-4]) / (12 * h)
    S = np.einsum("ij,njk,nkl->nil", MINUS_I, dphi, np.linalg.inv(mats[:n]))
    defect = np.max(np.abs(S - np.transpose(S, (0, 2, 1))))
    scale = max(1.0, float(np.max(np.abs(S))))
    if defect > _SYM_TOL * scale:
        raise IllConditioned(
            f"extracted S(t) has symmetry defect {defect:.3e}; frame is not unitary"
        )
    return SymmetricLoop(0.5 * (S + np.transpose(S, (0, 2, 1))))


# ---------------------------------------------------------------------------
# orbit indices


class OrbitIndexResult(NamedTuple):
    mu: int
    rho: float
    degenerate: bool
    convention: str  # "disk" or "fractional-disk"


def _closure_order(orbit: ClosedOrbit) -> int:
    """Smallest m with the m-th iterate closing on the sphere."""
    p = orbit.system.p
    return p // math.gcd(orbit.deck_power % p, p)


def _check_iterate(orbit: ClosedOrbit, k: int) -> None:
    """Refuse the k-th iterate of ``orbit`` beyond iterate ``_MAX_CATALOG`` of its prime orbit."""
    if k * orbit.multiplicity > _MAX_CATALOG:
        raise PreconditionViolation(
            f"iterate {k} of {orbit.label} is above {_MAX_CATALOG // orbit.multiplicity}"
        )


def _orbit_lift(orbit: ClosedOrbit):
    """Index reader k_eff -> OrbitIndexResult for the iterates of a prime orbit.

    The orbit is linearized once: the lift is the path, in the capping-disk
    frame, of the iterate that closes on the sphere; a lift with a sample that
    is not a rotation is refused.  Every direction turns alike, so rho is the
    monodromy's exact class mod 1 (``index._rotation_candidates``) moved by the
    whole turns of one direction, and turns over 1e-9 off that class are refused.
    Every iterate is read off rho and the monodromy A by the Sp(2) iteration
    formula mu = mu_tilde({j rho}); the j-th lift iterate is degenerate when
    det(A^j - I) vanishes.  Callers bound k with ``_check_iterate``.
    """
    m_close = _closure_order(orbit)
    base = orbit._repeated(m_close)
    lift_path = linearized_path(base)
    mats = lift_path.mats
    if np.max(np.abs(np.transpose(mats, (0, 2, 1)) @ mats - np.eye(2))) > 1e-8:
        raise IllConditioned(f"the lift of {orbit.label} is not a rotation path")
    frac = _rotation_candidates(lift_path)
    turns = delta_phi(lift_path, (1.0, 0.0))
    rho_lift = frac + round(turns - frac)
    if abs(rho_lift - turns) > 1e-9:
        raise IllConditioned(f"{orbit.label}'s lift turns {turns:.12g}, off its class {frac:.12g}")
    A = lift_path.monodromy
    powers = [A]  # A^j at j - 1, multiplied up; each is det-normalized where it is read

    def index(k_eff: int) -> OrbitIndexResult:
        j, rest = divmod(k_eff, m_close)
        if rest:
            rho = k_eff * (rho_lift / m_close)
            degenerate = abs(rho - round(rho)) < 1e-9
        else:
            while len(powers) < j:
                powers.append(A @ powers[-1])
            Aj = powers[j - 1] / np.sqrt(abs(np.linalg.det(powers[j - 1]))) if j > 1 else A
            rho = rho_lift * j
            degenerate = bool(abs(np.linalg.det(Aj - np.eye(2))) < DEGENERACY_TOL)
        convention = "fractional-disk" if rest else "disk"
        return OrbitIndexResult(mu_tilde((rho, rho)), rho, degenerate, convention)

    return index


def orbit_index(orbit: ClosedOrbit, k: int = 1) -> OrbitIndexResult:
    """Conley-Zehnder index and rotation number of the k-th iterate.

    Both are computed in the capping-disk trivialization class.  For
    quotient orbits the class is induced by the spanning disk of the
    iterate that closes on the sphere; iterates that do not close upstairs
    are reported in the fractional-disk convention mu_tilde({k * rho_prime}).
    Each call linearizes the orbit once and reads the index off that lift by
    the iteration formula; ``index_table`` shares one lift over all k.
    """
    if k < 1:
        raise PreconditionViolation("iterate exponent must be >= 1")
    _check_iterate(orbit, k)
    return _orbit_lift(orbit)(k * orbit.multiplicity)


def index_table(orbit: ClosedOrbit, k_max: int) -> list[dict]:
    """Index/rotation table for iterates 1..k_max, read off one lift, as JSON-ready records."""
    if k_max < 1:
        return []
    _check_iterate(orbit, k_max)
    index = _orbit_lift(orbit)
    rows = []
    for k in range(1, k_max + 1):
        res = index(k * orbit.multiplicity)
        rows.append({"k": k, "mu_cz": res.mu, "rho": res.rho, "degenerate": res.degenerate,
                     "convention": res.convention})
    return rows
