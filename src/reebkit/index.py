"""Conley-Zehnder indices, spectra of asymptotic operators, rotation numbers.

Two independent routes to the index of a symplectic path phi:[0,1] -> Sp(2)
with phi(0) = I are implemented.

* spectral:  phi determines a 1-periodic symmetric S(t) = -i phi' phi^{-1};
  the first-order operator  L = -i d/dt - S(t)  on loops R/Z -> C is
  discretized in a truncated Fourier basis, and the index is
  2*wind(largest negative eigenvalue) + parity.
* geometric: the winding interval I = image of the direction-twist map
  Delta(zeta) over the circle of directions is Delta of one sampled
  direction plus the closed-form extremes of the monodromy's turn, and the
  index is the integer invariant mu_tilde(I) of that interval.

Both definitions agree on nondegenerate paths; the test-suite enforces exact
integer agreement on a randomized corpus.  The rotation number is the one value
in the winding interval of its class mod 1, read exactly off the monodromy.
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

# multiplication by i and -i on R^2 = C
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
MINUS_I = np.array([[0.0, 1.0], [-1.0, 0.0]])

DEGENERACY_TOL = 1e-9
MIN_GRID = 64


class CzResult(NamedTuple):
    index: int
    degenerate: bool


@dataclass(frozen=True)
class FrameClass:
    """Homotopy class of an oriented trivialization, relative to a reference.

    Winding numbers between classes are differences of offsets, so
    wind(beta, beta) = 0 and the cocycle rule holds by construction.
    """

    offset: int = 0

    def shifted(self, m: int) -> "FrameClass":
        return FrameClass(self.offset + m)

    def wind_relative(self, other: "FrameClass") -> int:
        return self.offset - other.offset


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
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.mats.shape[0])

    @property
    def monodromy(self) -> np.ndarray:
        return self.mats[-1]

    def nondegenerate(self, tol: float = DEGENERACY_TOL) -> bool:
        return abs(np.linalg.det(self.monodromy - np.eye(2))) >= tol

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
    ts = path.ts
    ang = 2.0 * math.pi * maslov * ts
    c, s = np.cos(ang), np.sin(ang)
    rot = np.empty_like(path.mats)
    rot[:, 0, 0] = c
    rot[:, 0, 1] = -s
    rot[:, 1, 0] = s
    rot[:, 1, 1] = c
    mats = rot @ path.mats
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

    @property
    def ts(self) -> np.ndarray:
        n = self.n_samples
        return np.arange(n) / n

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


def _trig_evaluator(loop: SymmetricLoop):
    """Exact trig-series evaluator for the loop entries (s11, s12, s22)."""
    comps = np.stack(
        [loop.mats[:, 0, 0], loop.mats[:, 0, 1], loop.mats[:, 1, 1]], axis=1
    )
    n = comps.shape[0]
    spec = np.fft.rfft(comps, axis=0) / n
    a0 = spec[0].real
    ac = 2.0 * spec[1:].real  # cosine coefficients, harmonics 1..n//2
    bs = -2.0 * spec[1:].imag
    if n % 2 == 0:
        ac[-1] /= 2.0  # Nyquist term appears once
    keep = np.nonzero(
        (np.abs(ac) + np.abs(bs)).max(axis=1) > 1e-14 * max(1.0, np.abs(comps).max())
    )[0]
    ks = 2.0 * math.pi * (keep + 1)
    ac = ac[keep]
    bs = bs[keep]

    def S_at(t: float) -> np.ndarray:
        phase = ks * t
        vals = a0 + np.cos(phase) @ ac + np.sin(phase) @ bs
        return np.array([[vals[0], vals[1]], [vals[1], vals[2]]])

    return S_at


def path_from_loop(loop: SymmetricLoop, n: int = 512, rtol: float = 1e-12) -> SymplecticPath:
    """Solve phi' = i S(t) phi, phi(0) = I, sampling the solution on a grid.

    The one user of scipy: ``solve_ivp`` is imported on the first call, so
    ``import reebkit`` loads numpy alone.
    """
    from scipy.integrate import solve_ivp

    S_at = _trig_evaluator(loop)

    def rhs(t, y):
        phi = y.reshape(2, 2)
        return (J2 @ S_at(t) @ phi).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        np.eye(2).ravel(),
        method="DOP853",
        rtol=rtol,
        atol=rtol,
        t_eval=np.linspace(0.0, 1.0, n + 1),
        dense_output=False,
    )
    if not sol.success:  # pragma: no cover
        raise ReebkitError(f"path integration failed: {sol.message}")
    mats = sol.y.T.reshape(-1, 2, 2)
    mats /= np.sqrt(np.abs(np.linalg.det(mats)))[:, None, None]
    mats[0] = np.eye(2)
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


def random_nondegenerate_path(
    rng: np.random.Generator,
    degree: int = 3,
    scale: float = 5.0,
    n: int = 512,
    margin: float = 1e-6,
    max_tries: int = 50,
) -> tuple[SymplecticPath, SymmetricLoop]:
    """A random path recovered from a random smooth S(t), rejected when degenerate."""
    for _ in range(max_tries):
        loop = random_symmetric_loop(rng, degree=degree, scale=scale, n=n)
        path = path_from_loop(loop, n=n)
        if abs(np.linalg.det(path.monodromy - np.eye(2))) >= margin:
            return path, loop
    raise ReebkitError("could not draw a nondegenerate path")  # pragma: no cover


# ---------------------------------------------------------------------------
# the geometric index


def mu_tilde(interval, tol: float = 1e-9) -> int:
    """Integer invariant of a closed interval of length < 1/2.

    Returns 2k when some integer k lies in the interval and 2k+1 when the
    interval sits strictly inside (k, k+1); endpoints within ``tol`` of an
    integer are resolved by the one-sided limit J -> J - 0+.
    """
    if np.isscalar(interval):
        lo = hi = float(interval)
    else:
        lo, hi = float(interval[0]), float(interval[1])
    if hi < lo:
        raise PreconditionViolation("interval endpoints out of order")
    if hi - lo >= 0.5:
        raise PreconditionViolation(f"invalid interval: length {hi - lo} >= 1/2")
    return _mu_tilde(lo, hi, tol)


def _mu_tilde(lo: float, hi: float, tol: float = 1e-9) -> int:
    """``mu_tilde`` of [lo, hi], an interval whose length is known to be below 1/2."""
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
    if zeta.shape != (2,) or not np.any(zeta):
        raise PreconditionViolation("direction must be a nonzero plane vector")
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


def _delta_many(
    mats: np.ndarray, dirs: np.ndarray, max_jump: float = math.pi / 2
) -> np.ndarray:
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


def cz_geometric(path: SymplecticPath, tol: float = DEGENERACY_TOL) -> CzResult:
    """Conley-Zehnder index mu_tilde of the winding interval of the path."""
    lo, hi = winding_interval(path)
    # the length is 1/2 - margin / pi; margin stays positive where the length rounds to 1/2
    (a, b), (c, d) = path.monodromy.tolist()
    margin = math.atan2(2.0 * math.sqrt(max(a * d - b * c, 0.0)), math.hypot(a - d, b + c))
    if not margin > 0.0:
        raise ReebkitError(
            f"computed winding interval has length {hi - lo:.6f} >= 1/2; input is not a valid path"
        )
    degenerate = not path.nondegenerate(tol)
    return CzResult(_mu_tilde(lo, hi), degenerate)


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
    }


def _winding_of_coeffs(coeffs: np.ndarray, ks: np.ndarray, n_grid: int = 1024):
    """Winding and amplitude range of sum_k c_k e^{2 pi i k t} on a fine grid."""
    spec = np.zeros(n_grid, dtype=complex)
    spec[ks % n_grid] = coeffs
    u = np.fft.ifft(spec) * n_grid
    amp = np.abs(u)
    wind = _closed_winding(u, "eigenvector winding is far from an integer; refine discretization")
    return wind, float(amp.min()), float(amp.max())


def _closed_winding(u: np.ndarray, coarse_msg: str) -> int:
    """Winding number of a sampled complex loop, closed from the last sample to the first."""
    ang = np.unwrap(np.angle(u))
    closing = np.angle(u[0] / u[-1])
    wind_f = (ang[-1] + closing - ang[0]) / (2.0 * math.pi)
    wind = int(round(wind_f))
    if abs(wind_f - wind) > 0.1:
        raise GridTooCoarse(coarse_msg)
    return wind


def spectrum(
    loop: SymmetricLoop,
    window: int = 1,
    n_modes: int = 256,
    amp_tol: float = 1e-6,
) -> SpectralData:
    """Eigenvalues nearest zero of the operator -i d/dt - S(t), with windings.

    ``window`` counts how many winding levels on each side of the extremal
    pair are reported.  The discretization uses ``n_modes`` Fourier
    exponentials e_k (real dimension 2*n_modes).  Acting on u in C,
    S(t) u = alpha(t) u + m(t) conj(u) with alpha = (s11 + s22)/2 real and
    m = (s11 - s22)/2 + i s12, so in the basis (e_k, i e_k) the operator is
    diag(2 pi k) minus a Toeplitz part alpha_{j-k} and a Hankel part m_{j+k},
    read from the Fourier coefficients of the loop's own samples.
    """
    if window < 1:
        raise PreconditionViolation("window must be >= 1")
    half = n_modes // 2
    ks = np.arange(-half, n_modes - half)
    S = loop.mats
    comps = np.stack(
        [
            0.5 * (S[:, 0, 0] + S[:, 1, 1]),
            0.5 * (S[:, 0, 0] - S[:, 1, 1]) + 0.5j * (S[:, 0, 1] + S[:, 1, 0]),
        ],
        axis=1,
    )
    coeffs = _fourier_coeffs(comps, n_modes)
    # alpha is real: make its coefficients exactly conjugate-symmetric (c_0 real,
    # c_-j = conj(c_j)), so that M below is symmetric by construction
    alpha = coeffs[:, 0]
    alpha = 0.5 * (alpha + alpha[::-1].conj())
    toe = alpha[ks[:, None] - ks[None, :] + n_modes]
    han = coeffs[ks[:, None] + ks[None, :] + n_modes, 1]
    diag = np.diag(2.0 * math.pi * ks)
    M = np.empty((2 * n_modes, 2 * n_modes))
    M[0::2, 0::2] = diag - toe.real - han.real
    M[1::2, 0::2] = -toe.imag - han.imag
    M[0::2, 1::2] = toe.imag - han.imag
    M[1::2, 1::2] = diag - toe.real + han.real

    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    i0 = int(np.searchsorted(vals, 0.0))  # first index with nu >= 0

    def eig_entry(i: int):
        coeffs = vecs[0::2, i] + 1j * vecs[1::2, i]
        wind, amp_min, amp_max = _winding_of_coeffs(coeffs, ks)
        if amp_min < amp_tol * amp_max:
            raise GridTooCoarse(
                "eigenvector nearly vanishes; discretization failure "
                f"(min/max amplitude {amp_min / amp_max:.2e})"
            )
        return float(vals[i]), wind, amp_min / amp_max

    if i0 == 0 or i0 >= len(vals):  # pragma: no cover - needs absurd inputs
        raise ReebkitError("spectral window does not straddle zero; increase n_modes")

    neg_entry = eig_entry(i0 - 1)
    pos_entry = eig_entry(i0)
    wind_neg = neg_entry[1]
    wind_nonneg = pos_entry[1]
    entries = [neg_entry, pos_entry]
    lo_target = wind_neg - (window - 1)
    hi_target = wind_nonneg + (window - 1)
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

    degenerate = min(abs(v) for v, _, _ in entries) < DEGENERACY_TOL
    return SpectralData(
        eigenpairs=entries,
        wind_neg=wind_neg,
        wind_nonneg=wind_nonneg,
        parity=wind_nonneg - wind_neg,
        degenerate=degenerate,
    )


def cz_spectral(loop: SymmetricLoop, n_modes: int = 256) -> CzResult:
    """Conley-Zehnder index 2*wind_neg + parity from the loop operator spectrum."""
    sd = spectrum(loop, window=1, n_modes=n_modes)
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


def wind_relative(Z, W, amp_tol: float = 1e-8) -> int:
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
        if amp.min() < amp_tol * max(amp.max(), 1e-300):
            raise IllConditioned(f"section {name} is not bounded away from zero")
    return _closed_winding(wc / zc, "relative winding is far from an integer; refine sampling")
