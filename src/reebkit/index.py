"""Conley-Zehnder indices, spectra of asymptotic operators, rotation numbers.

Two independent routes to the index of a symplectic path phi:[0,1] -> Sp(2)
with phi(0) = I are implemented.

* spectral:  phi determines a 1-periodic symmetric S(t) = -i phi' phi^{-1};
  the first-order operator  L = -i d/dt - S(t)  on loops R/Z -> C is
  discretized in a truncated Fourier basis, and the index is
  2*wind(largest negative eigenvalue) + parity.  A short block of the modes
  is diagonalized, and trusted only where a certificate shows that the whole
  truncation has the same windings, parity and degeneracy flag.
* geometric: the winding interval I = image of the direction-twist map
  Delta(zeta) over the circle of directions is Delta of one sampled
  direction plus the closed-form extremes of the monodromy's turn, and the
  index is the integer invariant mu_tilde(I) of that interval.

Both definitions agree on nondegenerate paths; the test-suite enforces exact
integer agreement on a randomized corpus, whose paths ``path_from_loop``
integrates from S(t) by 6th-order Magnus steps.  The rotation number is the
one value in the winding interval of its class mod 1, read exactly off the
monodromy.  The module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    GridTooCoarse,
    IllConditioned,
    PreconditionViolation,
    ReebkitError,
)

# multiplication by -i on R^2 = C
MINUS_I = np.array([[0.0, 1.0], [-1.0, 0.0]])

DEGENERACY_TOL = 1e-9
MIN_GRID = 64  # fewest intervals a ``SymplecticPath`` samples
_ENDPOINT_TOL = 1e-9  # interval endpoints this close to an integer sit on it (``mu_tilde``)


class CzResult(NamedTuple):
    index: int
    degenerate: bool


# ---------------------------------------------------------------------------
# symplectic paths


@dataclass
class SymplecticPath:
    """Uniform samples of a path in Sp(2) over [0,1] with phi(0) = I.

    ``mats`` has shape (N+1, 2, 2); beyond [0,1] the path is extended by the
    monodromy rule phi(t+1) = phi(t) phi(1).
    """

    mats: np.ndarray

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim != 3 or self.mats.shape[1:] != (2, 2):
            raise PreconditionViolation("path samples must have shape (N+1, 2, 2)")
        if not np.all(np.isfinite(self.mats)):
            raise PreconditionViolation("path samples must be finite")
        if self.mats.shape[0] - 1 < MIN_GRID:
            raise PreconditionViolation(f"path grid must have at least {MIN_GRID} intervals")
        if not np.array_equal(self.mats[0], np.eye(2)):
            raise PreconditionViolation("phi(0) must be the identity exactly")
        # det = 1 within 1e-8 plus the rounding of the LU determinant, 16 eps (|ad| + |bc|)
        m = self.mats
        prods = np.abs(m[:, 0, 0] * m[:, 1, 1]) + np.abs(m[:, 0, 1] * m[:, 1, 0])
        if np.any(np.abs(np.linalg.det(m) - 1.0) > 1e-8 + 16.0 * 2.0**-52 * prods):
            raise PreconditionViolation("path samples must be symplectic (det = 1)")

    @property
    def n_intervals(self) -> int:
        return self.mats.shape[0] - 1

    @property
    def monodromy(self) -> np.ndarray:
        return self.mats[-1]

    def nondegenerate(self) -> bool:
        return abs(np.linalg.det(self.monodromy - np.eye(2))) >= DEGENERACY_TOL

    def iterate(self, k: int) -> "SymplecticPath":
        """The k-th iterate t -> phi(kt), extended by the monodromy rule."""
        if k < 1:
            raise PreconditionViolation("iterate exponent must be >= 1")
        if k == 1:
            return SymplecticPath(self.mats.copy())
        n = self.n_intervals
        A = self.monodromy
        out = np.empty((k * n + 1, 2, 2))
        power = np.eye(2)
        for m in range(k):
            out[m * n : (m + 1) * n] = self.mats[:n] @ power
            power = A @ power
        out[-1] = power
        return SymplecticPath(out)

    def inverse(self) -> "SymplecticPath":
        """The pointwise inverse path t -> phi(t)^{-1}."""
        inv = _pointwise_inverse(self.mats)
        inv[0] = np.eye(2)
        return SymplecticPath(inv)


def path_to_json(path: SymplecticPath) -> list:
    return [[[float(v) for v in row] for row in m] for m in path.mats]


def path_from_json(data: Sequence) -> SymplecticPath:
    return SymplecticPath(np.asarray(data, dtype=float))


def make_rotation_path(angle: float, n: int = 512) -> SymplecticPath:
    """Rigid rotation by ``angle`` over one period."""
    ts = np.linspace(0.0, 1.0, n + 1)
    c = np.cos(angle * ts)
    s = np.sin(angle * ts)
    mats = np.empty((n + 1, 2, 2))
    mats[:, 0, 0] = c
    mats[:, 0, 1] = -s
    mats[:, 1, 0] = s
    mats[:, 1, 1] = c
    mats[0] = np.eye(2)
    return SymplecticPath(mats)


def make_hyperbolic_path(rate: float, n: int = 512) -> SymplecticPath:
    """diag(e^{rate t}, e^{-rate t})."""
    ts = np.linspace(0.0, 1.0, n + 1)
    mats = np.zeros((n + 1, 2, 2))
    mats[:, 0, 0] = np.exp(rate * ts)
    mats[:, 1, 1] = np.exp(-rate * ts)
    mats[0] = np.eye(2)
    return SymplecticPath(mats)


def prepend_loop(path: SymplecticPath, maslov: int) -> SymplecticPath:
    """Multiply by the full-rotation loop of the given Maslov index pointwise."""
    mats = make_rotation_path(2.0 * math.pi * maslov, path.n_intervals).mats @ path.mats
    mats[0] = np.eye(2)
    return SymplecticPath(mats)


# ---------------------------------------------------------------------------
# symmetric loops


@dataclass
class SymmetricLoop:
    """Uniform samples of a 1-periodic symmetric 2x2 matrix function S(t).

    ``mats`` has shape (N, 2, 2); sample j sits at t = j/N.
    """

    mats: np.ndarray

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim != 3 or self.mats.shape[1:] != (2, 2):
            raise PreconditionViolation("loop samples must have shape (N, 2, 2)")
        if not np.all(np.isfinite(self.mats)):
            raise PreconditionViolation("loop samples must be finite")
        defect = np.max(np.abs(self.mats - np.transpose(self.mats, (0, 2, 1))))
        if defect > 1e-12:
            raise PreconditionViolation(f"loop samples must be symmetric, defect {defect:.3e}")

    @property
    def n_samples(self) -> int:
        return self.mats.shape[0]

    @classmethod
    def constant(cls, mat: np.ndarray, n: int = 256) -> "SymmetricLoop":
        mat = np.asarray(mat, dtype=float)
        return cls(np.repeat(mat[None, :, :], n, axis=0))


def _fourier_coeffs(vals: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients c_j, |j| <= n_max, of the trigonometric interpolant of periodic samples.

    Row j + n_max holds c_j.  An even sample count splits its Nyquist term
    evenly between j = +n/2 and j = -n/2.
    """
    n = vals.shape[0]
    spec = np.fft.fft(vals, axis=0) / n
    out = np.zeros((2 * n_max + 1,) + vals.shape[1:], dtype=complex)
    top = min(n_max, (n - 1) // 2)
    js = np.arange(-top, top + 1)
    out[js + n_max] = spec[js % n]
    if n % 2 == 0 and n // 2 <= n_max:
        out[n_max + n // 2] = out[n_max - n // 2] = spec[n // 2] / 2
    return out


def _loop_coeffs(loop: SymmetricLoop, n_max: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Fourier coefficients of S(t) u = alpha(t) u + m(t) conj(u), and a bound on ||S(t)||.

    alpha = (s11 + s22)/2 is real and m = (s11 - s22)/2 + i s12; row j + n_max
    holds the coefficient of e^{2 pi i j t}, |j| <= n_max, of the loop's
    trigonometric interpolant.  alpha's coefficients are made exactly
    conjugate-symmetric (c_0 real, c_-j = conj(c_j)).  S(t) has the
    eigenvalues alpha(t) +- |m(t)|, so sigma = sum |alpha_j| + sum |m_j| bounds
    ||S(t)|| and the norm of the multiplication part of the loop operator.
    """
    S = loop.mats
    comps = np.stack(
        [
            0.5 * (S[:, 0, 0] + S[:, 1, 1]),
            0.5 * (S[:, 0, 0] - S[:, 1, 1]) + 0.5j * (S[:, 0, 1] + S[:, 1, 0]),
        ],
        axis=1,
    )
    coeffs = _fourier_coeffs(comps, n_max)
    alpha = coeffs[:, 0]
    alpha = 0.5 * (alpha + alpha[::-1].conj())
    m = coeffs[:, 1]
    return alpha, m, float(np.abs(alpha).sum() + np.abs(m).sum())


# the three Gauss-Legendre nodes of a step, as fractions of it
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
MAGNUS_STEP = 0.05  # largest h * sigma of one Magnus substep


def _sl2_bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] of traceless 2x2 matrices stored as (a, b, c) for [[a, b], [c, -a]]."""
    a, b, c = x
    p, q, r = y
    return np.stack([b * r - q * c, 2.0 * (a * q - p * b), 2.0 * (c * p - a * r)])


def _magnus_steps(alpha: np.ndarray, m: np.ndarray, n: int, start: float, h: float) -> np.ndarray:
    """exp(Omega) of the 6th-order Magnus steps of phi' = J S(t) phi over [t_i, t_i + h].

    The steps start at t_i = i/n + start, i < n.  A = J S is evaluated at the
    three Gauss nodes of every step at once: the times of one node over all
    steps form a shifted uniform grid, so each node is one inverse FFT of the
    coefficients, folded mod n and phase-shifted.  Omega follows Blanes-Casas-Oteo-Ros
    (Phys. Rep. 470, 2009) from the moments alpha1..3 and two commutators,
    and lies in sl(2), so Omega^2 = d I with d = -det Omega and
    exp(Omega) = cosh sqrt(d) I + sinh sqrt(d)/sqrt(d) Omega (cos/sin when
    d < 0) has determinant 1.
    """
    n_max = (len(alpha) - 1) // 2
    js = np.arange(-n_max, n_max + 1)
    shift = np.exp(2j * math.pi * (start + h * _GAUSS[:, None]) * js)  # (3, harmonics)
    folded = np.zeros((2, 3, n), dtype=complex)
    np.add.at(folded, (slice(None), slice(None), js % n), np.stack([alpha * shift, m * shift]))
    vals = np.fft.ifft(folded, axis=-1) * n
    al, mr, mi = vals[0].real, vals[1].real, vals[1].imag
    # J S = [[-s12, -s22], [s11, s12]] with s11 = alpha + Re m, s22 = alpha - Re m, s12 = Im m
    A = np.stack([-mi, mr - al, al + mr], axis=1)  # (nodes, (a, b, c), steps)
    a1 = h * A[1]
    a2 = (math.sqrt(15.0) * h / 3.0) * (A[2] - A[0])
    a3 = (10.0 * h / 3.0) * (A[2] - 2.0 * A[1] + A[0])
    c1 = _sl2_bracket(a1, a2)
    c2 = (-1.0 / 60.0) * _sl2_bracket(a1, 2.0 * a3 + c1)
    a, b, c = a1 + a3 / 12.0 + (1.0 / 240.0) * _sl2_bracket(-20.0 * a1 - a3 + c1, a2 + c2)
    d = a * a + b * c
    root = np.sqrt(np.abs(d))
    hyper = d >= 0.0
    even = np.where(hyper, np.cosh(root), np.cos(root))
    odd = np.divide(np.where(hyper, np.sinh(root), np.sin(root)), root,
                    out=np.ones_like(root), where=root > 0.0)
    E = np.empty((n, 2, 2))
    E[:, 0, 0] = even + odd * a
    E[:, 0, 1] = odd * b
    E[:, 1, 0] = odd * c
    E[:, 1, 1] = even - odd * a
    return E


def path_from_loop(loop: SymmetricLoop, n: int = 512) -> SymplecticPath:
    """Solve phi' = i S(t) phi, phi(0) = I, on the grid of n intervals, by Magnus steps.

    Each grid interval takes the smallest power of 2 of substeps with
    h * sigma <= ``MAGNUS_STEP``, sigma the bound of ``_loop_coeffs`` on
    ||S(t)||; substep s of every interval is one call of ``_magnus_steps``,
    so memory does not grow with their number.  The n interval transitions
    are multiplied by a log-depth (Hillis-Steele) prefix product, so every
    sample is a product of determinant-1 factors.  numpy alone.
    """
    if n < MIN_GRID:
        raise PreconditionViolation(f"path grid must have at least {MIN_GRID} intervals")
    alpha, m, sigma = _loop_coeffs(loop, loop.n_samples // 2)
    sub = 1
    while sigma > MAGNUS_STEP * n * sub:
        sub *= 2
    h = 1.0 / (n * sub)
    steps = _magnus_steps(alpha, m, n, 0.0, h)
    for s in range(1, sub):
        steps = _mul_stacks(_magnus_steps(alpha, m, n, s * h, h), steps)
    span = 1
    while span < n:
        steps[span:] = _mul_stacks(steps[span:], steps[:-span])
        span *= 2
    mats = np.empty((n + 1, 2, 2))
    mats[0] = np.eye(2)
    mats[1:] = steps
    return SymplecticPath(mats)


def random_symmetric_loop(
    rng: np.random.Generator, degree: int = 3, scale: float = 5.0, n: int = 512
) -> SymmetricLoop:
    """Random trigonometric-polynomial S(t) with coefficients in [-scale, scale]."""
    ts = np.arange(n) / n
    entries = []
    for _ in range(3):  # s11, s12, s22
        vals = np.full(n, rng.uniform(-scale, scale))
        for j in range(1, degree + 1):
            vals += rng.uniform(-scale, scale) * np.cos(2 * math.pi * j * ts)
            vals += rng.uniform(-scale, scale) * np.sin(2 * math.pi * j * ts)
        entries.append(vals)
    mats = np.empty((n, 2, 2))
    mats[:, 0, 0] = entries[0]
    mats[:, 0, 1] = entries[1]
    mats[:, 1, 0] = entries[1]
    mats[:, 1, 1] = entries[2]
    return SymmetricLoop(mats)


DRAW_MARGIN = 1e-6  # smallest |det(A - I)| of an accepted random path
_MAX_DRAWS = 50


def random_nondegenerate_path(
    rng: np.random.Generator, degree: int = 3, scale: float = 5.0, n: int = 512
) -> tuple[SymplecticPath, SymmetricLoop]:
    """A random path recovered from a random smooth S(t), rejected when degenerate."""
    for _ in range(_MAX_DRAWS):
        loop = random_symmetric_loop(rng, degree=degree, scale=scale, n=n)
        path = path_from_loop(loop, n=n)
        if abs(np.linalg.det(path.monodromy - np.eye(2))) >= DRAW_MARGIN:
            return path, loop
    raise ReebkitError("could not draw a nondegenerate path")  # pragma: no cover


# ---------------------------------------------------------------------------
# the geometric index


def mu_tilde(interval) -> int:
    """Integer invariant of a closed interval of length < 1/2.

    Returns 2k when some integer k lies in the interval and 2k+1 when the
    interval sits strictly inside (k, k+1); endpoints within ``_ENDPOINT_TOL``
    of an integer are resolved by the one-sided limit J -> J - 0+.
    """
    if np.isscalar(interval):
        lo = hi = float(interval)
    else:
        lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PreconditionViolation(f"interval endpoints must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise PreconditionViolation("interval endpoints out of order")
    if hi - lo >= 0.5:
        raise PreconditionViolation(f"invalid interval: length {hi - lo} >= 1/2")
    return _mu_tilde(lo, hi)


def _mu_tilde(lo: float, hi: float) -> int:
    """``mu_tilde`` of [lo, hi], an interval whose length is known to be below 1/2."""
    tol = _ENDPOINT_TOL
    for k in range(math.floor(lo - 2 * tol), math.ceil(hi + 2 * tol) + 1):
        at_lo = abs(k - lo) <= tol
        at_hi = abs(k - hi) <= tol
        if at_lo and at_hi:
            return 2 * k - 1  # point interval at an integer; the shifted copy sits below k
        if at_lo:
            return 2 * k  # shifted interval still contains k
        if at_hi:
            return 2 * k - 1  # shifted interval slides into (k-1, k)
        if lo < k < hi:
            return 2 * k
    return 2 * math.floor((lo + hi) / 2.0) + 1


def delta_phi(path: SymplecticPath, zeta) -> float:
    """Total winding of t -> phi(t) zeta over one period of the path."""
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (2,) or not np.any(zeta) or not np.isfinite(zeta).all():
        raise PreconditionViolation("direction must be a finite nonzero plane vector")
    return float(_delta_many(path.mats, zeta[None, :], _jump_threshold(path.mats))[0])


def _pointwise_inverse(mats: np.ndarray) -> np.ndarray:
    inv = np.empty_like(mats)
    inv[:, 0, 0] = mats[:, 1, 1]
    inv[:, 0, 1] = -mats[:, 0, 1]
    inv[:, 1, 0] = -mats[:, 1, 0]
    inv[:, 1, 1] = mats[:, 0, 0]
    return inv


def _mul_stacks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a_n b_n of two stacks of 2x2 matrices, as explicit 2x2 products.

    Each entry is summed from 0.0 as ``np.einsum("nij,njk->nik", a, b)``
    sums it, so the bits are einsum's, signed zeros included.
    """
    return 0.0 + a[:, :, :1] * b[:, None, 0] + a[:, :, 1:] * b[:, None, 1]


def _transitions_and_threshold(mats: np.ndarray) -> tuple[np.ndarray, float]:
    """Left transitions phi_{j+1} phi_j^{-1} and the largest trustworthy per-sample phase jump.

    When the left transitions are close to the identity the direction speed
    is bounded and jumps are small anyway.  When the right transitions
    phi_j^{-1} phi_{j+1} are close to the identity (the pointwise inverse of a
    finely sampled path), each segment's image stays inside an arc of width
    < pi around the segment start, so the principal value of the jump is the
    exact sweep; jumps may then approach pi.
    """
    inv = _pointwise_inverse(mats[:-1])
    left_steps = _mul_stacks(mats[1:], inv)
    eye = np.eye(2)
    left = np.max(np.abs(left_steps - eye))
    right = np.max(np.abs(_mul_stacks(inv, mats[1:]) - eye))
    if min(left, right) <= 0.3:
        return left_steps, math.pi - 1e-9
    return left_steps, math.pi / 2


def _jump_threshold(mats: np.ndarray) -> float:
    return _transitions_and_threshold(mats)[1]


def _delta_many(mats: np.ndarray, dirs: np.ndarray, max_jump: float) -> np.ndarray:
    (m00, m01), (m10, m11) = np.moveaxis(mats, 0, -1)[..., None]  # each (samples, 1)
    d0, d1 = dirs[:, 0], dirs[:, 1]
    ang = np.arctan2(m10 * d0 + m11 * d1, m00 * d0 + m01 * d1)
    diffs = np.diff(ang, axis=0)
    diffs = (diffs + math.pi) % (2.0 * math.pi) - math.pi
    if np.max(np.abs(diffs)) > max_jump:
        raise GridTooCoarse("phase jump between samples is too large; refine the path grid")
    return diffs.sum(axis=0) / (2.0 * math.pi)


def _turn_range(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half-width of the angles each 2x2 matrix turns the directions by.

    On R^2 = C the matrix acts as z -> alpha z + beta conj(z), so it turns
    e^{i theta} by arg(alpha + beta e^{-2 i theta}): the argument of a circle of
    centre alpha and radius |beta| < |alpha| (the determinant is |alpha|^2 -
    |beta|^2 > 0).  That argument sweeps arg(alpha) -+ asin(|beta|/|alpha|)
    and takes its extremes at the tangent directions, where |A u|^2 = det A.
    The half-width is written atan2(|beta|, sqrt(det)) so that it keeps its
    digits on strongly hyperbolic matrices, where |beta|/|alpha| is close to 1.
    """
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    centre = np.arctan2(c - b, a + d)
    half = np.arctan2(np.hypot(a - d, b + c), 2.0 * np.sqrt(a * d - b * c))
    return centre, half


def winding_interval(path: SymplecticPath) -> tuple[float, float]:
    """The closed interval swept by the direction-twist map over all directions.

    The jump from phi_j u to phi_{j+1} u is the turn of the left transition
    phi_{j+1} phi_j^{-1} on the direction phi_j u, so its largest size over
    all directions u is read off the transition (``_turn_range``), and a
    step whose largest jump passes the trustworthy bound raises
    ``GridTooCoarse``.  Below the bound the sampled twist Delta(u) is
    continuous in u, so 2 pi Delta(u) minus the turn of the monodromy A on u
    is a constant multiple of 2 pi.  Delta(e_1) is summed over the samples
    once, and the extremes of the turn of A give the interval.
    """
    steps, max_jump = _transitions_and_threshold(path.mats)
    centre, half = _turn_range(steps)
    if not np.all(np.abs(centre) + half <= max_jump):
        raise GridTooCoarse("phase jump between samples is too large; refine the path grid")
    start = float(_delta_many(path.mats, np.array([[1.0, 0.0]]), max_jump)[0])
    A = path.monodromy
    centre_a, half_a = (float(v) for v in _turn_range(A))
    mid = math.remainder(centre_a - math.atan2(A[1, 0], A[0, 0]), 2.0 * math.pi)
    return (
        start + (mid - half_a) / (2.0 * math.pi),
        start + (mid + half_a) / (2.0 * math.pi),
    )


def cz_geometric(path: SymplecticPath) -> CzResult:
    """Conley-Zehnder index mu_tilde of the winding interval of the path."""
    lo, hi = winding_interval(path)
    # the length is 1/2 - margin / pi; margin stays positive where the length rounds to 1/2
    (a, b), (c, d) = path.monodromy.tolist()
    margin = math.atan2(2.0 * math.sqrt(max(a * d - b * c, 0.0)), math.hypot(a - d, b + c))
    if not margin > 0.0:
        raise ReebkitError(
            f"computed winding interval has length {hi - lo:.6f} >= 1/2; input is not a valid path"
        )
    return CzResult(_mu_tilde(lo, hi), not path.nondegenerate())


# ---------------------------------------------------------------------------
# the spectral index


@dataclass
class SpectralData:
    """Eigenvalues of the loop operator nearest zero with their windings."""

    eigenpairs: list = field(default_factory=list)  # (nu, wind, min_amplitude)
    wind_neg: int = 0       # winding of the largest negative eigenvalue
    wind_nonneg: int = 0    # winding of the smallest nonnegative eigenvalue
    parity: int = 0
    degenerate: bool = False
    modes: int = 0          # Fourier modes of the block the window was read from
    # (eigenvalue bound, winding bound / min amplitude) of that block against N_MODES
    certified_bound: tuple = (0.0, 0.0)

    def __post_init__(self):
        winds = [w for _, w, _ in self.eigenpairs]
        nus = [nu for nu, _, _ in self.eigenpairs]
        if any(w2 < w1 for w1, w2 in zip(winds, winds[1:])) or any(
            n2 < n1 for n1, n2 in zip(nus, nus[1:])
        ):
            raise ReebkitError("spectral windings must be nondecreasing in the eigenvalue")
        counts: dict[int, int] = {}
        for w in winds:
            counts[w] = counts.get(w, 0) + 1
            if counts[w] > 2:
                raise ReebkitError(f"winding {w} occurs more than twice in the window")
        if any(amp <= 0 for _, _, amp in self.eigenpairs):
            raise ReebkitError("eigenvector amplitudes must be positive")
        if self.parity not in (0, 1):
            raise ReebkitError(f"parity must be 0 or 1, got {self.parity}")


def spectral_report_json(sd: SpectralData) -> dict:
    return {
        "eigenvalues": [
            {"nu": float(nu), "wind": int(w), "min_amplitude": float(a)}
            for nu, w, a in sd.eigenpairs
        ],
        "wind_neg": int(sd.wind_neg),
        "wind_nonneg": int(sd.wind_nonneg),
        "parity": int(sd.parity),
        "degenerate": bool(sd.degenerate),
        "modes": int(sd.modes),
        "certified_bound": {
            "eigenvalue": float(sd.certified_bound[0]),
            "winding": float(sd.certified_bound[1]),
        },
    }


N_MODES = 256  # Fourier modes of the whole loop operator
_AMP_TOL = 1e-6  # smallest min/max amplitude of a reported eigenvector
_WINDING_GRID = 1024  # samples of an eigenvector read for its winding


def _winding_of_coeffs(coeffs: np.ndarray, ks: np.ndarray):
    """Winding and samples of u(t) = sum_k c_k e^{2 pi i k t} on a fine grid."""
    spec = np.zeros(_WINDING_GRID, dtype=complex)
    spec[ks % _WINDING_GRID] = coeffs
    u = np.fft.ifft(spec) * _WINDING_GRID
    wind = _closed_winding(u, "eigenvector winding is far from an integer; refine discretization")
    return wind, u


def _closed_winding(u: np.ndarray, coarse_msg: str) -> int:
    """Winding number of a sampled complex loop, closed from the last sample to the first."""
    ang = np.unwrap(np.angle(u))
    closing = np.angle(u[0] / u[-1])
    wind_f = (ang[-1] + closing - ang[0]) / (2.0 * math.pi)
    wind = int(round(wind_f))
    if abs(wind_f - wind) > 0.1:
        raise GridTooCoarse(coarse_msg)
    return wind


def _operator_block(
    alpha: np.ndarray, m: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """The rows x cols modes of the loop operator, real and interleaved as (e_k, i e_k).

    Entry (j, k) is 2 pi k [j = k] minus the Toeplitz part alpha_{j-k} and the
    Hankel part m_{j+k}; with rows = cols the block is symmetric by construction.
    """
    n_max = (len(alpha) - 1) // 2
    toe = alpha[rows[:, None] - cols[None, :] + n_max]
    han = m[rows[:, None] + cols[None, :] + n_max]
    diag = np.where(rows[:, None] == cols[None, :], 2.0 * math.pi * cols, 0.0)
    out = np.empty((2 * len(rows), 2 * len(cols)))
    out[0::2, 0::2] = diag - toe.real - han.real
    out[1::2, 0::2] = -toe.imag - han.imag
    out[0::2, 1::2] = toe.imag - han.imag
    out[1::2, 1::2] = diag - toe.real + han.real
    return out


def _window(vals: np.ndarray, vecs: np.ndarray, ks: np.ndarray, window: int):
    """The reported eigenpairs, walking out from zero until the windings leave the window.

    Returns the entries (nu, wind, min/max amplitude) and the winding and
    samples u(t) of every pair examined, by index, the two that stop the
    walks included.
    """
    i0 = int(np.searchsorted(vals, 0.0))  # first index with nu >= 0
    examined = {}

    def eig_entry(i: int):
        wind, u = _winding_of_coeffs(vecs[0::2, i] + 1j * vecs[1::2, i], ks)
        amp = np.abs(u)
        amp_min, amp_max = float(amp.min()), float(amp.max())
        if amp_min < _AMP_TOL * amp_max:
            raise GridTooCoarse(
                "eigenvector nearly vanishes; discretization failure "
                f"(min/max amplitude {amp_min / amp_max:.2e})"
            )
        examined[i] = (wind, u)
        return float(vals[i]), wind, amp_min / amp_max

    if i0 == 0 or i0 >= len(vals):  # pragma: no cover - needs absurd inputs
        raise ReebkitError("spectral window does not straddle zero")

    neg_entry = eig_entry(i0 - 1)
    pos_entry = eig_entry(i0)
    entries = [neg_entry, pos_entry]
    lo_target = neg_entry[1] - (window - 1)
    hi_target = pos_entry[1] + (window - 1)
    i = i0 - 2
    while i >= 0:
        e = eig_entry(i)
        if e[1] < lo_target:
            break
        entries.insert(0, e)
        i -= 1
    i = i0 + 1
    while i < len(vals):
        e = eig_entry(i)
        if e[1] > hi_target:
            break
        entries.append(e)
        i += 1
    return entries, examined


_FIRST_BLOCK = 64  # Fourier modes of the block tried before the whole operator


def _certify(alpha, m, sigma, ks, vals, vecs, examined):
    """(eps, winding bound / min amplitude) when the block decides the N_MODES result, else None.

    M is the N_MODES-mode operator: the kept block A (modes ``ks``), the
    coupling B (dropped rows x kept columns) and the dropped block C.  For
    each eigenpair (mu_j, v_j) of A, r_j = ||B v_j|| is the exact residual of
    v_j padded with zeros.  W holds the ``examined`` pairs, a run of A's
    eigenvalues; it lies inside the interval I that ends halfway to A's next
    eigenvalue on either side.

    (a) C's eigenvalues lie within sigma of its diagonal 2 pi k (Weyl), so
        g_C = dist(2 pi k, I) - sigma > 0 over the dropped k keeps them out of
        I, and Haynsworth's inertia formula counts M's eigenvalues below any
        lambda in I by the Schur complement diag(mu - lambda) - P(lambda),
        P = (BV)^T (C - lambda)^{-1} BV, in A's eigenbasis V.
    (b) |P_jl| <= r_j r_l / g_C, so row j of P sums to at most
        rho_j = r_j sum(r) / g_C; where |mu_j - lambda| > rho_j for every j
        the Schur complement is diagonally dominant, with the inertia of
        diag(mu - lambda).  So when every disc [mu_j -+ rho_j] outside W
        misses I and those of W are disjoint inside I, M has in I exactly one
        eigenvalue in each disc of W.
    (c) The discs of W, widened by the rounding of both eigh calls, must stay
        disjoint and keep 0 and +-DEGENERACY_TOL outside, which decides signs,
        order and the degeneracy flag; eps is the largest widened radius.  A
        winding is decided when the Davis-Kahan bound
        sqrt(2 N_MODES) r_j / gap_j on |u_M - u_A|, gap_j the distance from
        mu_j to the next disc or end of I, stays below min |u_A(t)| (Rouche).
        A double eigenvalue (overlapping discs) certifies nothing.
    """
    # eigh is backward stable: each computed eigenvalue is within dim * ulp * ||M|| of one
    rounding = 2.0 * (2 * N_MODES) * 2.0**-52 * (math.pi * N_MODES + sigma)
    lo, hi = min(examined), max(examined)
    if lo < 1 or hi > len(vals) - 2:
        return None
    ends = (0.5 * (vals[lo - 1] + vals[lo]), 0.5 * (vals[hi] + vals[hi + 1]))
    g_c = min(ends[0] - 2.0 * math.pi * (ks[0] - 1), 2.0 * math.pi * (ks[-1] + 1) - ends[1]) - sigma
    if not g_c > 0.0:
        return None
    half = N_MODES // 2
    dropped = np.concatenate([np.arange(-half, ks[0]), np.arange(ks[-1] + 1, N_MODES - half)])
    res = np.linalg.norm(_operator_block(alpha, m, dropped, ks) @ vecs, axis=0)
    radius = res * (res.sum() / g_c) + rounding
    out = np.r_[0:lo, hi + 1 : len(vals)]
    if not np.all((vals[out] + radius[out] < ends[0]) | (vals[out] - radius[out] > ends[1])):
        return None
    win, radius, res = vals[lo : hi + 1], radius[lo : hi + 1], res[lo : hi + 1]
    below, above = np.r_[ends[0], win + radius], np.r_[win - radius, ends[1]]
    if not np.all(below < above):
        return None
    marks = np.array([-DEGENERACY_TOL, 0.0, DEGENERACY_TOL])
    if np.any(np.abs(win[:, None] - marks) <= radius[:, None]):
        return None
    gap = np.minimum(win - below[:-1], above[1:] - win)
    amps = np.array([np.abs(examined[j][1]) for j in range(lo, hi + 1)])
    amp_min, amp_max = amps.min(axis=1), amps.max(axis=1)
    b = math.sqrt(2.0 * N_MODES) * res / gap
    if not np.all(amp_min - b >= _AMP_TOL * (amp_max + b)):
        return None
    return float(radius.max()), float((b / amp_min).max())


def spectrum(loop: SymmetricLoop, window: int = 1) -> SpectralData:
    """Eigenvalues nearest zero of the operator -i d/dt - S(t), with windings.

    ``window`` counts how many winding levels on each side of the extremal
    pair are reported.  The discretization uses ``N_MODES`` Fourier
    exponentials e_k (real dimension 2*N_MODES).  Acting on u in C,
    S(t) u = alpha(t) u + m(t) conj(u) with alpha = (s11 + s22)/2 real and
    m = (s11 - s22)/2 + i s12, so in the basis (e_k, i e_k) the operator is
    diag(2 pi k) minus a Toeplitz part alpha_{j-k} and a Hankel part m_{j+k},
    read from the Fourier coefficients of the loop's own samples.

    The block of the 64 modes nearest k = 0 is diagonalized first, and its
    window is reported when ``_certify`` shows that it has the N_MODES
    operator's windings, parity and degeneracy flag, with its eigenvalues
    within the certified bound.  Otherwise, and for constant loops, the whole
    operator is diagonalized.
    """
    if window < 1:
        raise PreconditionViolation("window must be >= 1")
    alpha, m, sigma = _loop_coeffs(loop, N_MODES)
    # a constant loop commutes with time translation, which doubles each eigenvalue
    # of winding k != 0; the window's ends have such windings, so no block certifies
    first = N_MODES if np.all(loop.mats == loop.mats[0]) else _FIRST_BLOCK
    for modes in sorted({first, N_MODES}):
        ks = np.arange(-(modes // 2), modes - modes // 2)
        vals, vecs = np.linalg.eigh(_operator_block(alpha, m, ks, ks))
        order = np.argsort(vals)
        vals = vals[order]
        vecs = vecs[:, order]
        if modes == N_MODES:
            entries = _window(vals, vecs, ks, window)[0]
            bound = (0.0, 0.0)
            break
        try:
            entries, examined = _window(vals, vecs, ks, window)
            bound = _certify(alpha, m, sigma, ks, vals, vecs, examined)
        except ReebkitError:  # a block that fails decides nothing
            bound = None
        if bound is not None:
            break

    wind_neg = next(w for nu, w, _ in reversed(entries) if nu < 0.0)
    wind_nonneg = next(w for nu, w, _ in entries if nu >= 0.0)
    return SpectralData(
        eigenpairs=entries,
        wind_neg=wind_neg,
        wind_nonneg=wind_nonneg,
        parity=wind_nonneg - wind_neg,
        degenerate=min(abs(v) for v, _, _ in entries) < DEGENERACY_TOL,
        modes=modes,
        certified_bound=bound,
    )


def cz_spectral(loop: SymmetricLoop) -> CzResult:
    """Conley-Zehnder index 2*wind_neg + parity from the loop operator spectrum."""
    sd = spectrum(loop)
    return CzResult(2 * sd.wind_neg + sd.parity, sd.degenerate)


# ---------------------------------------------------------------------------
# rotation numbers


def _rotation_candidates(path: SymplecticPath) -> float:
    """The rotation number's class mod 1: the exact turn of phi(1) over 2 pi, not reduced.

    On C, phi(1) is z -> alpha z + beta conj(z).  When |Im alpha| > |beta| it is
    elliptic and turns by atan2(+-sqrt(Im alpha^2 - |beta|^2), Re alpha), the
    root taken in product form so the digits survive near +-I; otherwise it
    fixes (tr > 0, class 0) or reverses (tr < 0, class 1/2) an eigendirection.
    """
    (a, b), (c, d) = path.monodromy.tolist()
    im, beta = 0.5 * (c - b), 0.5 * math.hypot(a - d, b + c)
    if abs(im) <= beta:
        return 0.0 if a + d > 0 else 0.5
    sin = math.copysign(math.sqrt((abs(im) - beta) * (abs(im) + beta)), im)
    return math.atan2(sin, 0.5 * (a + d)) / (2.0 * math.pi)


def rotation_number_with_error(path: SymplecticPath, *, iterates=None) -> tuple[float, float]:
    """The one value of the monodromy's class mod 1 in the winding interval, with error 0.

    An interval (shorter than 1/2) that holds no value of the class, or
    several within 1e-9, raises ``IllConditioned``.  ``iterates`` is accepted
    for compatibility and has no effect.
    """
    frac = _rotation_candidates(path)
    lo, hi = winding_interval(path)
    n_lo, n_hi = math.ceil(lo - 1e-9 - frac), math.floor(hi + 1e-9 - frac)
    if n_lo != n_hi:
        raise IllConditioned(
            f"the winding interval [{lo:.12g}, {hi:.12g}] holds {max(0, n_hi - n_lo + 1)} "
            f"values of the monodromy's class {frac:.12g} mod 1"
        )
    return frac + n_lo, 0.0


def rotation_number(path: SymplecticPath) -> float:
    """Rotation number of the path; see ``rotation_number_with_error``."""
    return rotation_number_with_error(path)[0]


# ---------------------------------------------------------------------------
# relative windings of sections


_SECTION_AMP_TOL = 1e-8  # smallest min/max amplitude of a section ``wind_relative`` reads


def wind_relative(Z, W) -> int:
    """Winding of the loop W written in the positive frame completed from Z.

    Both arguments are sampled non-vanishing plane-vector loops of equal
    length; the winding is the integer phase change of W relative to Z.
    """
    Z = np.asarray(Z, dtype=float)
    W = np.asarray(W, dtype=float)
    if Z.shape != W.shape or Z.ndim != 2 or Z.shape[1] != 2:
        raise PreconditionViolation("sections must be sampled as (N, 2) arrays of equal shape")
    zc = Z[:, 0] + 1j * Z[:, 1]
    wc = W[:, 0] + 1j * W[:, 1]
    for name, arr in (("Z", zc), ("W", wc)):
        amp = np.abs(arr)
        if amp.min() < _SECTION_AMP_TOL * max(amp.max(), 1e-300):
            raise IllConditioned(f"section {name} is not bounded away from zero")
    return _closed_winding(wc / zc, "relative winding is far from an integer; refine sampling")
