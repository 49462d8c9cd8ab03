import math

import numpy as np
import pytest
from conftest import CORPUS_SEED, CORPUS_SIZE
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import reebkit as rk
from reebkit.errors import GridTooCoarse, IllConditioned, PreconditionViolation
from reebkit.index import DEGENERACY_TOL, _delta_many, _jump_threshold


def _golden_extremum(x_lo: float, x_hi: float, sign: float, iters: int = 80):
    """Golden-section optimizer of sign*f as a generator.

    It yields each point at which it needs f, is sent f there, and returns
    the extremal value of sign*f.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = x_lo, x_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = sign * (yield c)
    fd = sign * (yield d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * (yield c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * (yield d)
        if b - a < 1e-13:
            break
    return sign * max(fc, fd)


def _in_lockstep(f_many, searches) -> list[float]:
    """Runs the generator searches side by side: one ``f_many`` call per round for all open ones."""
    points = {i: next(s) for i, s in enumerate(searches)}
    results = [math.nan] * len(searches)
    while points:
        values = f_many(np.array(list(points.values())))
        for i, value in zip(list(points), values):
            try:
                points[i] = searches[i].send(float(value))
            except StopIteration as stop:
                results[i] = stop.value
                del points[i]
    return results


_TWO_PI = 2.0 * math.pi


def _stacked_twists(cols, d0, d1, max_jumps: np.ndarray) -> np.ndarray:
    """The twist of each stacked path in one direction, the bits of ``_delta_many``.

    ``cols`` are the four entries of the samples, each a (samples, paths)
    array; ``d0`` and ``d1`` are the direction's components.  A path whose
    sampled jump passes its bound in ``max_jumps`` raises ``GridTooCoarse``.
    The jumps d lie in [-2 pi, 2 pi], so x = d + pi lies in [-pi, 3 pi], and
    ``x % 2pi`` is written out as its two branches there: x - 2 pi for x >= 2 pi,
    which is exact (Sterbenz), and x + 2 pi, rounded, for x < 0.
    """
    m00, m01, m10, m11 = cols
    y = m10 * d0
    y += m11 * d1
    x = m00 * d0
    x += m01 * d1
    ang = np.arctan2(y, x, out=y)
    jumps = np.subtract(ang[1:], ang[:-1], out=x[1:])
    jumps += math.pi
    np.subtract(jumps, _TWO_PI, out=jumps, where=jumps >= _TWO_PI)
    np.add(jumps, _TWO_PI, out=jumps, where=jumps < 0.0)
    jumps -= math.pi
    if np.any(np.max(np.abs(jumps), axis=0) > max_jumps):
        raise GridTooCoarse("phase jump between samples is too large; refine the path grid")
    # summed in sample order, as ``_delta_many`` sums its (samples, directions)
    # blocks; a one-path stack would otherwise be summed pairwise
    return np.cumsum(jumps, axis=0)[-1] / _TWO_PI


def _scanned_winding_intervals(paths, n_dirs: int = 720) -> list[tuple[float, float]]:
    """Reference winding intervals: twist ``n_dirs`` directions, refine both extremes.

    The former library route.  It sums every direction's sampled jumps and
    checks them against the same bound, but only on the scanned directions.
    Paths with the same number of samples are stacked, 64 at a time so the
    arrays stay in cache, and twisted one direction at a time; each path's
    twists are the bits of ``_delta_many``.
    """
    thetas = np.arange(n_dirs) * math.pi / n_dirs  # antipodal directions twist equally
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    max_jumps = np.array([_jump_threshold(path.mats) for path in paths])
    vals = np.empty((len(paths), n_dirs))
    groups: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        groups.setdefault(len(path.mats), []).append(i)
    for group in groups.values():
        for block in (group[i : i + 64] for i in range(0, len(group), 64)):
            stack = np.stack([paths[i].mats for i in block], axis=1)
            cols = [np.ascontiguousarray(stack[:, :, r, c]) for r in (0, 1) for c in (0, 1)]
            for k, (d0, d1) in enumerate(dirs):
                vals[block, k] = _stacked_twists(cols, d0, d1, max_jumps[block])
    step = math.pi / n_dirs
    intervals = []
    for path, twists, max_jump in zip(paths, vals, max_jumps):
        i_min = int(np.argmin(twists))
        i_max = int(np.argmax(twists))

        def at(angles: np.ndarray) -> np.ndarray:
            dirs_at = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            return _delta_many(path.mats, dirs_at, max_jump)

        ref_lo, ref_hi = _in_lockstep(at, [
            _golden_extremum(thetas[i_min] - step, thetas[i_min] + step, -1.0),
            _golden_extremum(thetas[i_max] - step, thetas[i_max] + step, +1.0),
        ])
        intervals.append((min(float(twists[i_min]), ref_lo), max(float(twists[i_max]), ref_hi)))
    return intervals


def _scanned_winding_interval(path: rk.SymplecticPath, n_dirs: int = 720) -> tuple[float, float]:
    """``_scanned_winding_intervals`` of the one path."""
    return _scanned_winding_intervals([path], n_dirs)[0]


# ---------------------------------------------------------------------------
# mu_tilde


def test_mu_tilde_examples():
    assert rk.mu_tilde((0.3, 0.6)) == 1
    assert rk.mu_tilde((-0.2, 0.2)) == 0
    assert rk.mu_tilde((1.0, 1.3)) == 2  # the shifted interval still contains 1


def test_mu_tilde_boundary_cases():
    assert rk.mu_tilde(0.5) == 1
    assert rk.mu_tilde(1.0) == 1          # point at an integer slides below it
    assert rk.mu_tilde((0.7, 1.0)) == 1   # integer at the top endpoint
    assert rk.mu_tilde((-1.2, -0.9)) == -2
    assert rk.mu_tilde((2.1, 2.4)) == 5


def test_mu_tilde_rejects_long_intervals():
    with pytest.raises(PreconditionViolation):
        rk.mu_tilde((0.0, 0.5))
    with pytest.raises(PreconditionViolation):
        rk.mu_tilde((0.4, 0.2))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_index_input_is_refused(value):
    for interval in (value, (0.1, value), (value, 0.1)):
        with pytest.raises(PreconditionViolation):
            rk.mu_tilde(interval)
    path = rk.make_rotation_path(math.pi)
    for zeta in ([value, 1.0], [0.0, value]):
        with pytest.raises(PreconditionViolation):
            rk.delta_phi(path, zeta)


@given(
    lo_m=st.integers(-40_000, 40_000),
    width_m=st.integers(0, 490),
    shift=st.integers(-5, 5),
)
def test_mu_tilde_integer_shift_property(lo_m, width_m, shift):
    # endpoints on a milli-grid keep a safe distance from the integer-snapping
    # tolerance, where the classification is allowed to be one-sided
    lo = lo_m / 1000.0
    width = width_m / 1000.0
    base = rk.mu_tilde((lo, lo + width))
    assert rk.mu_tilde((lo + shift, lo + width + shift)) == base + 2 * shift


# ---------------------------------------------------------------------------
# direction twists


def test_delta_phi_rotation_by_pi():
    path = rk.make_rotation_path(math.pi)
    for zeta in ([1.0, 0.0], [0.3, -0.7]):
        assert rk.delta_phi(path, zeta) == pytest.approx(0.5, abs=1e-12)


def test_delta_phi_rotation_by_three_pi():
    path = rk.make_rotation_path(3 * math.pi)
    assert rk.delta_phi(path, [1.0, 0.0]) == pytest.approx(1.5, abs=1e-12)


def test_delta_phi_hyperbolic_eigendirection():
    path = rk.make_hyperbolic_path(1.0)
    assert rk.delta_phi(path, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert rk.delta_phi(path, [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_delta_phi_rejects_coarse_grid():
    path = rk.make_rotation_path(150.0, n=64)  # > pi/2 rotation per sample
    with pytest.raises(GridTooCoarse):
        rk.delta_phi(path, [1.0, 0.0])


def test_delta_phi_rejects_zero_direction():
    path = rk.make_rotation_path(math.pi)
    with pytest.raises(PreconditionViolation):
        rk.delta_phi(path, [0.0, 0.0])


# ---------------------------------------------------------------------------
# the geometric index


def test_cz_geometric_normalization():
    assert rk.cz_geometric(rk.make_rotation_path(math.pi)) == (1, False)


def test_cz_geometric_higher_rotation():
    assert rk.cz_geometric(rk.make_rotation_path(3 * math.pi)).index == 3


def test_cz_geometric_hyperbolic():
    assert rk.cz_geometric(rk.make_hyperbolic_path(1.0)) == (0, False)


@pytest.mark.parametrize("rate", [36.0, 37.0, 40.0, 100.0, 700.0])
def test_cz_geometric_strongly_hyperbolic(rate):
    # from rate 37 on the interval's length rounds to 1/2; its complement does not round to 0
    path = rk.make_hyperbolic_path(rate)
    lo, hi = rk.winding_interval(path)
    assert (hi - lo == 0.5) == (rate > 36.0)
    assert rk.cz_geometric(path) == (0, False)


def test_cz_geometric_degenerate_flag():
    res = rk.cz_geometric(rk.make_rotation_path(2 * math.pi))
    assert res.degenerate
    assert res.index == 1  # one-sided limit convention


def _reference_paths(corpus):
    for rec in corpus.records:
        yield rec.path
        yield rec.path.inverse()
        yield rk.prepend_loop(rec.path, 1)
    for angle in (0.4, math.pi, 1.9, 5.1, 2 * math.pi, 3 * math.pi):
        path = rk.make_rotation_path(angle)
        for k in (1, 2, 3, 5):
            yield path.iterate(k) if k > 1 else path
    yield rk.make_hyperbolic_path(1.0)
    yield rk.make_hyperbolic_path(3.0)


def _candidate_set(path, lo, hi):
    frac = rk.index._rotation_candidates(path)
    return [frac + n for n in range(math.ceil(lo - 1e-9 - frac), math.floor(hi + 1e-9 - frac) + 1)]


def test_closed_form_winding_interval_matches_scan(corpus):
    paths = list(_reference_paths(corpus))
    for path, (ref_lo, ref_hi) in zip(paths, _scanned_winding_intervals(paths)):
        lo, hi = rk.winding_interval(path)
        assert abs(lo - ref_lo) < 1e-11 and abs(hi - ref_hi) < 1e-11
        assert rk.mu_tilde((lo, hi)) == rk.mu_tilde((ref_lo, ref_hi))
        assert _candidate_set(path, lo, hi) == _candidate_set(path, ref_lo, ref_hi)


def _sheared_path(peak: float, n: int = 512) -> rk.SymplecticPath:
    """A slow hyperbolic stretch after a first segment that turns one direction by ``peak``.

    The first transition is R(c) S R(-c), with the shear S = [[1, s], [0, 1]]
    and s = 2 tan(peak / 2).  S turns the directions by between -peak and 0,
    and by -peak at the angle pi - atan(2 / s).  The conjugation moves that
    angle to pi/1440, halfway between the first two of 720 scanned directions.
    The stretch diag(e^{2t}, e^{-2t}) that follows moves the extremes of the
    twist away from that direction.
    """
    s = 2.0 * math.tan(peak / 2.0)
    c = math.pi / 1440 - (math.pi - math.atan(2.0 / s))
    rot = np.array([[math.cos(c), -math.sin(c)], [math.sin(c), math.cos(c)]])
    step = rot @ np.array([[1.0, s], [0.0, 1.0]]) @ rot.T
    mats = rk.make_hyperbolic_path(2.0, n=n).mats
    mats[1:] = np.einsum("nij,jk->nik", mats[:-1], step)
    return rk.SymplecticPath(mats)


def test_winding_interval_guards_every_direction():
    # the first segment turns some direction by more than the pi/2 bound,
    # and none of the 720 scanned directions by that much
    path = _sheared_path(math.pi / 2 + 1e-6)
    assert _jump_threshold(path.mats) == math.pi / 2

    def first_jumps(n_dirs):
        thetas = np.arange(n_dirs) * math.pi / n_dirs
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        turned = dirs @ path.mats[1].T
        jump = np.arctan2(turned[:, 1], turned[:, 0]) - thetas
        return np.abs(np.remainder(jump + math.pi, 2 * math.pi) - math.pi)

    assert first_jumps(720).max() < math.pi / 2 < first_jumps(720 * 64).max()
    with pytest.raises(GridTooCoarse):
        rk.winding_interval(path)
    with pytest.raises(GridTooCoarse):
        rk.cz_geometric(path)
    # just under the bound the same construction is read, and agrees with the scan
    below = _sheared_path(math.pi / 2 - 1e-3)
    lo, hi = rk.winding_interval(below)
    ref_lo, ref_hi = _scanned_winding_interval(below)
    assert abs(lo - ref_lo) < 1e-11 and abs(hi - ref_hi) < 1e-11


def _lift_shaped_stacks(corpus):
    for rec in corpus.records[:6]:
        yield rec.path.mats
        yield rec.path.inverse().mats
    for lens in (None, (2, 1), (3, 2)):
        sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0),
                                lens=rk.LensParams(*lens) if lens else None)
        for orbit in rk.principal_orbits(sys_):
            yield rk.linearized_path(orbit).mats
    for angle in (0.4, math.pi, 2 * math.pi):
        yield rk.make_rotation_path(angle).iterate(3).mats
    yield rk.make_hyperbolic_path(3.0).mats
    yield _sheared_path(math.pi / 2 - 1e-3).mats


def test_stack_products_equal_einsum_bitwise(corpus):
    rng = np.random.default_rng(8)
    pairs = []
    for n in (1, 2, 7, 512):
        for scale in (1e-300, 1e-3, 1.0, 1e5, 1e300):
            a, b = rng.standard_normal((2, n, 2, 2)) * scale
            # signed zeros: einsum sums from +0.0, so two -0.0 products give +0.0
            a[rng.random(a.shape) < 0.2] = -0.0
            b[rng.random(b.shape) < 0.2] = 0.0
            pairs.append((a, b))
    for mats in _lift_shaped_stacks(corpus):
        inv = rk.index._pointwise_inverse(mats[:-1])
        pairs += [(mats[1:], inv), (inv, mats[1:])]
        steps, _ = rk.index._transitions_and_threshold(mats)
        assert steps.tobytes() == np.einsum("nij,njk->nik", mats[1:], inv).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):  # the 1e300 stacks overflow
        for a, b in pairs:
            ref = np.einsum("nij,njk->nik", a, b)
            assert rk.index._mul_stacks(a, b).tobytes() == ref.tobytes()


def test_path_validation():
    with pytest.raises(PreconditionViolation):
        rk.SymplecticPath(np.repeat(2 * np.eye(2)[None], 100, axis=0))
    mats = rk.make_rotation_path(1.0).mats.copy()
    mats[0] = [[1.0, 1e-3], [0.0, 1.0]]
    with pytest.raises(PreconditionViolation):
        rk.SymplecticPath(mats)
    # non-finite samples pass the determinant check (nan > tol is False)
    for bad in (math.nan, math.inf):
        mats = rk.make_rotation_path(1.0).mats.copy()
        mats[7, 0, 1] = bad
        with pytest.raises(PreconditionViolation):
            rk.SymplecticPath(mats)
    with np.errstate(all="ignore"), pytest.raises(PreconditionViolation):
        rk.make_hyperbolic_path(40.0).iterate(30)  # overflows to inf and nan


def test_path_determinant_slack_scales_with_the_entries():
    """det is compared with 1 within 1e-8 plus the LU rounding, 16 eps (|ad| + |bc|)."""
    # random paths whose monodromies reach |A| ~ 1e2-1e3: an absolute 1e-8 would
    # refuse one draw and six of the squares
    rng = np.random.default_rng(5)
    refused, largest = [], 0.0
    for _ in range(30):
        path, _loop = rk.random_nondegenerate_path(
            rng, scale=rng.uniform(1, 9), degree=rng.integers(1, 5)
        )
        largest = max(largest, np.abs(path.monodromy).max())
        try:
            path.iterate(2)
        except PreconditionViolation as exc:
            refused.append((np.abs(path.monodromy).max(), str(exc)))
    # none at all: the square of the draw with |A| ~ 4e4, whose det(A @ A)
    # rounds to 0.0, is built as well, since iterates are not divided by det
    assert refused == [] and largest > 3e4
    # a determinant off by 1e-6 is still refused, whatever the scale
    base = rk.make_rotation_path(1.0).mats
    for entry in (1.0, 10.0, 1000.0):
        mats = base.copy()
        mats[5] = [[entry, 0.0], [0.0, (1.0 + 1e-6) / entry]]
        with pytest.raises(PreconditionViolation, match="symplectic"):
            rk.SymplecticPath(mats)
        mats[5] = [[entry, 0.0], [0.0, 1.0 / entry]]
        rk.SymplecticPath(mats)


def test_path_json_round_trip():
    path = rk.make_rotation_path(math.pi, n=64)
    back = rk.path_from_json(rk.path_to_json(path))
    assert np.array_equal(back.mats, path.mats)


# ---------------------------------------------------------------------------
# the spectral route


def test_spectrum_constant_pi():
    loop = rk.SymmetricLoop.constant(math.pi * np.eye(2))
    sd = rk.spectrum(loop, window=2)
    nus = sorted({round(nu, 9) for nu, _, _ in sd.eigenpairs})
    for nu in nus:
        k = (nu + math.pi) / (2 * math.pi)
        assert abs(k - round(k)) < 1e-8
    assert sd.wind_neg == 0 and sd.wind_nonneg == 1 and sd.parity == 1
    winds = [w for _, w, _ in sd.eigenpairs]
    assert winds == sorted(winds)


def test_spectrum_constant_three_pi():
    sd = rk.spectrum(rk.SymmetricLoop.constant(3 * math.pi * np.eye(2)))
    assert sd.wind_neg == 1 and sd.wind_nonneg == 2 and sd.parity == 1


def test_spectrum_zero_is_degenerate():
    sd = rk.spectrum(rk.SymmetricLoop.constant(np.zeros((2, 2))))
    assert sd.degenerate


def test_spectrum_eigenvalue_oracle_nonconstant():
    # S(t) = c I + exact gauge term: rotating frame shifts the spectrum of the
    # constant operator; eigenvalues remain 2 pi k - c
    n = 512
    ts = np.arange(n) / n
    c = 1.3
    mats = np.zeros((n, 2, 2))
    mats[:, 0, 0] = c
    mats[:, 1, 1] = c
    sd = rk.spectrum(rk.SymmetricLoop(mats))
    assert sd.eigenpairs[0][0] == pytest.approx(-c, abs=1e-9)
    assert sd.eigenpairs[-1][0] == pytest.approx(2 * math.pi - c, abs=1e-9)


def test_cz_spectral_values():
    assert rk.cz_spectral(rk.SymmetricLoop.constant(math.pi * np.eye(2))).index == 1
    assert rk.cz_spectral(rk.SymmetricLoop.constant(3 * math.pi * np.eye(2))).index == 3
    assert rk.cz_spectral(rk.SymmetricLoop.constant(-math.pi * np.eye(2))).index == -1


def test_loop_symmetry_validation():
    mats = np.zeros((64, 2, 2))
    mats[:, 0, 1] = 1.0
    with pytest.raises(PreconditionViolation):
        rk.SymmetricLoop(mats)
    for bad in (math.nan, math.inf):
        mats = np.zeros((64, 2, 2))
        mats[5] = bad
        with pytest.raises(PreconditionViolation):
            rk.SymmetricLoop(mats)


def test_spectral_report_json():
    sd = rk.spectrum(rk.SymmetricLoop.constant(math.pi * np.eye(2)))
    rep = rk.spectral_report_json(sd)
    assert rep["parity"] == 1 and not rep["degenerate"]
    assert all(set(e) == {"nu", "wind", "min_amplitude"} for e in rep["eigenvalues"])


# ---------------------------------------------------------------------------
# rotation numbers


def test_rotation_number_rigid():
    for c in (math.pi, 0.4, 5.1):
        assert rk.rotation_number(rk.make_rotation_path(c)) == pytest.approx(
            c / (2 * math.pi), abs=1e-9
        )


def test_rotation_number_hyperbolic():
    assert rk.rotation_number(rk.make_hyperbolic_path(0.8)) == 0.0


def test_rotation_number_iterate_additive():
    path = rk.make_rotation_path(1.9)
    rho = rk.rotation_number(path)
    for k in (2, 3, 5):
        assert rk.rotation_number(path.iterate(k)) == pytest.approx(k * rho, abs=1e-6)


def test_rotation_number_keeps_the_digits_of_a_tiny_turn():
    # the class is the monodromy's rotation angle, not reduced mod 1, so a
    # turn of 1e-12 keeps its digits and no estimate is needed
    for c in (1e-12, 1e-10, 1e-8, 1e-6, -1e-8):
        rho, err = rk.rotation_number_with_error(rk.make_rotation_path(c))
        assert rho == pytest.approx(c / (2 * math.pi), rel=1e-14, abs=0.0)
        assert err == 0.0


@pytest.mark.parametrize("interval, count", [((1.45, 1.55), 0), ((0.3, 1.5), 2)])
def test_rotation_number_refuses_interval_without_one_value_of_the_class(
    interval, count, monkeypatch
):
    path = rk.make_rotation_path(0.4 * 2 * math.pi)  # class 0.4
    monkeypatch.setattr(rk.index, "winding_interval", lambda path: interval)
    with pytest.raises(IllConditioned, match=f"holds {count} values"):
        rk.rotation_number_with_error(path)


def test_rotation_limit_of_indices_on_rigid_rotations():
    # rho = lim mu(path^k) / (2k), already within 0.1 by k = 8
    for c in (0.9, 2.5, 4.4):
        path = rk.make_rotation_path(c)
        rho = rk.rotation_number(path)
        errs = []
        for k in (4, 6, 8):
            mu_k = rk.cz_geometric(path.iterate(k)).index
            errs.append(abs(mu_k / (2 * k) - rho))
        assert errs[-1] <= 0.1


# ---------------------------------------------------------------------------
# relative windings


def test_wind_relative_examples():
    n = 256
    t = np.arange(n) / n
    Z = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=1)
    W3 = np.stack([np.cos(6 * np.pi * t), np.sin(6 * np.pi * t)], axis=1)
    const = np.tile([2.0, 0.5], (n, 1))
    assert rk.wind_relative(const, const) == 0
    assert rk.wind_relative(Z, Z) == 0
    assert rk.wind_relative(Z, W3) == 2
    # W = e^{2 pi i t} Z against constant Z
    rot = np.stack(
        [
            np.cos(2 * np.pi * t) * const[:, 0] - np.sin(2 * np.pi * t) * const[:, 1],
            np.sin(2 * np.pi * t) * const[:, 0] + np.cos(2 * np.pi * t) * const[:, 1],
        ],
        axis=1,
    )
    assert rk.wind_relative(const, rot) == 1


def test_wind_relative_cocycle():
    n = 128
    t = np.arange(n) / n
    loops = [
        np.stack([np.cos(2 * np.pi * k * t) + 1.5, np.sin(2 * np.pi * k * t)], axis=1)
        for k in (1, 2, 3)
    ]
    w21 = rk.wind_relative(loops[0], loops[1])
    w32 = rk.wind_relative(loops[1], loops[2])
    w31 = rk.wind_relative(loops[0], loops[2])
    assert w31 == w32 + w21


def test_wind_relative_rejects_vanishing():
    n = 65  # odd count puts a sample exactly at zero
    Z = np.zeros((n, 2))
    Z[:, 0] = np.linspace(-1, 1, n)
    W = np.ones((n, 2))
    with pytest.raises(IllConditioned):
        rk.wind_relative(Z, W)


# ---------------------------------------------------------------------------
# corpus properties (the full 100-path corpus is exercised in the acceptance
# suite; spot-check the axioms here on a smaller seeded batch)


def test_axioms_small_batch():
    rng = np.random.default_rng(7)
    for _ in range(10):
        path, loop = rk.random_nondegenerate_path(rng)
        g = rk.cz_geometric(path)
        assert rk.cz_spectral(loop).index == g.index
        assert rk.cz_geometric(rk.prepend_loop(path, 1)).index == g.index + 2
        assert rk.cz_geometric(path.inverse()).index == -g.index


def test_homotopy_axiom_small_perturbations():
    rng = np.random.default_rng(8)
    path, loop = rk.random_nondegenerate_path(rng)
    base = rk.cz_geometric(path).index
    ts = np.arange(loop.n_samples) / loop.n_samples
    for eps in (1e-5, 1e-4, 1e-3):
        pert = loop.mats.copy()
        pert[:, 0, 0] += eps * np.cos(2 * np.pi * ts)
        pert[:, 0, 1] += eps * np.sin(2 * np.pi * ts)
        pert[:, 1, 0] += eps * np.sin(2 * np.pi * ts)
        p2 = rk.path_from_loop(rk.SymmetricLoop(pert))
        if p2.nondegenerate():
            assert rk.cz_geometric(p2).index == base


def test_spectrum_matches_monodromy_oracle():
    # independent oracle: nu is an eigenvalue of the loop operator exactly
    # when the path generated by S - nu*I returns with eigenvalue 1, i.e.
    # det(phi_nu(1) - I) = 0
    rng = np.random.default_rng(12)
    for _ in range(3):
        loop = rk.random_symmetric_loop(rng, degree=2, scale=3.0)
        sd = rk.spectrum(loop, window=1)
        for nu, _w, _a in sd.eigenpairs:
            shifted = rk.SymmetricLoop(loop.mats + nu * np.eye(2))
            path = rk.path_from_loop(shifted)
            assert abs(np.linalg.det(path.monodromy - np.eye(2))) < 1e-5


def test_certified_unwrap_matches_fine_sampling():
    # windings of pointwise-inverse paths computed on the coarse grid agree
    # with brute-force fine sampling (the arc-confinement certificate)
    from reebkit.index import _delta_many, _jump_threshold

    rng = np.random.default_rng(13)
    thetas = np.linspace(0, np.pi, 9)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for _ in range(2):
        path, loop = rk.random_nondegenerate_path(rng, scale=2.5)
        fine = rk.path_from_loop(loop, n=16384)
        coarse_inv = path.inverse()
        d_coarse = _delta_many(coarse_inv.mats, dirs, _jump_threshold(coarse_inv.mats))
        d_fine = _delta_many(fine.inverse().mats, dirs, math.pi / 2)
        assert np.abs(d_coarse - d_fine).max() < 1e-9


def _bandlimited_loop(n: int) -> rk.SymmetricLoop:
    # highest harmonic 4: the cos(2 pi 4 t) terms are the Nyquist terms at n = 8
    t = np.arange(n) / n
    c4 = np.cos(8 * np.pi * t)
    mats = np.empty((n, 2, 2))
    mats[:, 0, 0] = 1.0 + 2.0 * np.cos(2 * np.pi * t) + 0.5 * c4
    mats[:, 0, 1] = mats[:, 1, 0] = 0.7 * np.sin(4 * np.pi * t) + 0.3 * np.cos(6 * np.pi * t)
    mats[:, 1, 1] = -0.5 + 1.5 * np.sin(2 * np.pi * t) - 0.4 * c4
    return rk.SymmetricLoop(mats)


def test_spectrum_independent_of_sample_count_on_bandlimited_loop():
    ref = rk.spectrum(_bandlimited_loop(512), window=2)
    for n in (8, 16, 2048):
        sd = rk.spectrum(_bandlimited_loop(n), window=2)
        assert [w for _, w, _ in sd.eigenpairs] == [w for _, w, _ in ref.eigenpairs]
        nus = np.array([nu for nu, _, _ in sd.eigenpairs])
        ref_nus = np.array([nu for nu, _, _ in ref.eigenpairs])
        assert np.abs(nus - ref_nus).max() < 1e-9
        assert (sd.wind_neg, sd.wind_nonneg, sd.parity) == (
            ref.wind_neg, ref.wind_nonneg, ref.parity
        )


def test_spectrum_matrix_is_symmetric_by_construction(corpus, monkeypatch):
    """The discretized operator handed to ``eigh`` equals its transpose bit for bit."""
    seen = []
    eigh = np.linalg.eigh

    def capture(M, *args, **kwargs):
        seen.append(M)
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", capture)
    loops = [rec.loop for rec in corpus.records[:10]]
    # constant loops and an 8-sample loop whose harmonic 4 is the split Nyquist term
    loops += [rk.SymmetricLoop.constant(math.pi * np.eye(2)), _bandlimited_loop(8)]
    loops.append(rk.SymmetricLoop.constant([[1.3, 0.4], [0.4, -2.1]], n=7))
    for loop in loops:
        rk.spectrum(loop)
    assert len(seen) == len(loops)
    for M in seen:
        assert np.array_equal(M, M.T)


def test_spectral_monotonicity_on_random_loops():
    rng = np.random.default_rng(9)
    for _ in range(5):
        loop = rk.random_symmetric_loop(rng)
        sd = rk.spectrum(loop, window=2)
        nus = [nu for nu, _, _ in sd.eigenpairs]
        winds = [w for _, w, _ in sd.eigenpairs]
        assert nus == sorted(nus)
        assert winds == sorted(winds)
        for w in set(winds):
            assert winds.count(w) <= 2
        assert all(amp > 0 for _, _, amp in sd.eigenpairs)


# ---------------------------------------------------------------------------
# the Magnus path against DOP853


def _dop853_mats(loop: rk.SymmetricLoop, n: int = 512) -> np.ndarray:
    """The former library route: ``solve_ivp`` DOP853 at rtol 1e-12 on the loop's interpolant.

    The interpolant is evaluated from the real Fourier series of (s11, s12,
    s22), with the harmonics below 1e-14 of the largest entry dropped.
    """
    comps = np.stack([loop.mats[:, 0, 0], loop.mats[:, 0, 1], loop.mats[:, 1, 1]], axis=1)
    n_s = comps.shape[0]
    spec = np.fft.rfft(comps, axis=0) / n_s
    a0, ac, bs = spec[0].real, 2.0 * spec[1:].real, -2.0 * spec[1:].imag
    if n_s % 2 == 0:
        ac[-1] /= 2.0  # the Nyquist term appears once
    keep = np.nonzero(
        (np.abs(ac) + np.abs(bs)).max(axis=1) > 1e-14 * max(1.0, np.abs(comps).max())
    )[0]
    ks, ac, bs = 2.0 * math.pi * (keep + 1), ac[keep], bs[keep]

    def rhs(t, y):
        s11, s12, s22 = a0 + np.cos(ks * t) @ ac + np.sin(ks * t) @ bs
        return (np.array([[-s12, -s22], [s11, s12]]) @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(2).ravel(), method="DOP853", rtol=1e-12,
                    atol=1e-12, t_eval=np.linspace(0.0, 1.0, n + 1))
    assert sol.success
    mats = sol.y.T.reshape(-1, 2, 2)
    mats[0] = np.eye(2)
    return mats


@pytest.fixture(scope="module")
def dop853_draws():
    """Every draw of the corpus generator, accepted or not, with its DOP853 samples."""
    rng = np.random.default_rng(CORPUS_SEED)
    draws, accepted = [], 0
    while accepted < CORPUS_SIZE:
        loop = rk.random_symmetric_loop(rng)
        mats = _dop853_mats(loop)
        ok = abs(np.linalg.det(mats[-1] - np.eye(2))) >= 1e-6
        draws.append((loop, mats, ok))
        accepted += ok
    return draws


def _assert_close_to_dop853(path: rk.SymplecticPath, ref: np.ndarray) -> None:
    m = path.mats
    scale = np.abs(ref).max(axis=(1, 2))
    assert (np.abs(m - ref).max(axis=(1, 2)) / scale).max() <= 1e-10
    # det = ad - bc is exact to its rounding, a few ulp of |ad| + |bc|
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    prods = np.abs(m[:, 0, 0] * m[:, 1, 1]) + np.abs(m[:, 0, 1] * m[:, 1, 0])
    assert np.all(np.abs(det - 1.0) <= 1e-12 * prods)


def test_magnus_path_matches_dop853(dop853_draws):
    accepted = [(loop, mats) for loop, mats, ok in dop853_draws if ok]
    for loop, mats in accepted[:20]:
        _assert_close_to_dop853(rk.path_from_loop(loop), mats)
    # sigma ~ 290 takes 16 substeps per interval, and the path grows to ~1e13
    loop = rk.random_symmetric_loop(np.random.default_rng(4), degree=3, scale=50.0)
    assert rk.index._loop_coeffs(loop, loop.n_samples // 2)[2] > 8 * rk.index.MAGNUS_STEP * 512
    _assert_close_to_dop853(rk.path_from_loop(loop), _dop853_mats(loop))


def test_corpus_draws_are_accepted_as_with_dop853(corpus, dop853_draws):
    kept = []
    for loop, mats, ok in dop853_draws:
        path = rk.path_from_loop(loop)
        accepted = abs(np.linalg.det(path.monodromy - np.eye(2))) >= rk.index.DRAW_MARGIN
        assert accepted == ok
        if ok:
            kept.append((loop, rk.SymplecticPath(mats)))
    assert len(kept) == len(corpus.records)
    for rec, (loop, ref) in zip(corpus.records, kept):
        assert np.array_equal(rec.loop.mats, loop.mats)
        assert rk.cz_geometric(ref).index == rec.mu_geo == rec.mu_spec
        assert abs(rk.rotation_number(ref) - rec.rho) <= 1e-10


def test_magnus_path_takes_as_many_substeps_as_the_loop_needs():
    # sigma ~ 290 on 64 intervals takes 128 substeps per interval, one call each
    loop = rk.random_symmetric_loop(np.random.default_rng(4), degree=3, scale=50.0)
    assert rk.index._loop_coeffs(loop, loop.n_samples // 2)[2] > 64 * rk.index.MAGNUS_STEP * 64
    _assert_close_to_dop853(rk.path_from_loop(loop, n=64), _dop853_mats(loop, n=64))
    with pytest.raises(PreconditionViolation):
        rk.path_from_loop(rk.SymmetricLoop.constant(np.eye(2)), n=8)


# ---------------------------------------------------------------------------
# the certified spectral block against the whole operator


def _dense_window(loop: rk.SymmetricLoop, window: int, n_modes: int = 256) -> list:
    """Reference: the window of the whole n_modes operator, assembled by the same helper."""
    alpha, m, _sigma = rk.index._loop_coeffs(loop, n_modes)
    ks = np.arange(-(n_modes // 2), n_modes - n_modes // 2)
    vals, vecs = np.linalg.eigh(rk.index._operator_block(alpha, m, ks, ks))
    order = np.argsort(vals)
    return rk.index._window(vals[order], vecs[:, order], ks, window)[0]


def _assert_matches_dense(loop: rk.SymmetricLoop, window: int) -> rk.SpectralData:
    sd = rk.spectrum(loop, window=window)
    ref = _dense_window(loop, window)
    assert [w for _, w, _ in sd.eigenpairs] == [w for _, w, _ in ref]
    nus = np.array([nu for nu, _, _ in sd.eigenpairs])
    # within the certified bound, which reads 0 where the whole operator was taken
    drift = np.abs(nus - np.array([nu for nu, _, _ in ref])).max()
    assert drift <= min(1e-12, sd.certified_bound[0])
    ref_neg = next(w for nu, w, _ in reversed(ref) if nu < 0.0)
    ref_nonneg = next(w for nu, w, _ in ref if nu >= 0.0)
    assert (sd.wind_neg, sd.wind_nonneg, sd.parity) == (ref_neg, ref_nonneg, ref_nonneg - ref_neg)
    assert sd.degenerate == (min(abs(nu) for nu, _, _ in ref) < DEGENERACY_TOL)
    if sd.modes == 256:
        assert sd.eigenpairs == ref  # the whole operator: today's bits
    return sd


def _spectral_test_loops():
    """The loops of the spectral tests above, with the windows they use."""
    for c in (math.pi, 3 * math.pi, -math.pi, 0.0, 1.3):
        yield rk.SymmetricLoop.constant(c * np.eye(2)), 2
    yield rk.SymmetricLoop.constant([[1.3, 0.4], [0.4, -2.1]], n=7), 2
    for n in (8, 16, 512, 2048):
        yield _bandlimited_loop(n), 2
    rng = np.random.default_rng(9)
    for _ in range(5):
        yield rk.random_symmetric_loop(rng), 2
    rng = np.random.default_rng(12)
    for _ in range(3):
        yield rk.random_symmetric_loop(rng, degree=2, scale=3.0), 1


def test_spectrum_block_matches_whole_operator(corpus):
    modes = []
    for rec in corpus.records:
        modes.append(_assert_matches_dense(rec.loop, 1).modes)
    assert modes == [64] * len(corpus.records)
    for loop, window in _spectral_test_loops():
        _assert_matches_dense(loop, window)


def test_spectrum_takes_the_whole_operator_when_64_modes_cannot_certify():
    # sigma > 64 pi: the dropped modes' band 2 pi k -+ sigma reaches zero at
    # 64 modes.  The window's eigenvectors peak near k = 180 / 2 pi = 29, so
    # the 64-mode block still straddles zero, but its eigenvalues are 0.18 off
    loop = rk.random_symmetric_loop(np.random.default_rng(4))
    loop = rk.SymmetricLoop(loop.mats + 180.0 * np.eye(2))
    assert rk.index._loop_coeffs(loop, 256)[2] > 64 * math.pi
    for window in (1, 2):
        assert _assert_matches_dense(loop, window).modes == 256


def test_spectral_report_records_the_block_and_its_margins(corpus):
    loop = corpus.records[0].loop
    sd = rk.spectrum(loop)
    eps, wind = sd.certified_bound
    # eps is the widened disc radius: eigh's rounding allowance at 256 modes dominates it
    sigma = rk.index._loop_coeffs(loop, 256)[2]
    rounding = 2.0 * 512 * 2.0**-52 * (math.pi * 256 + sigma)
    assert sd.modes == 64 and rounding <= eps < 2.0 * rounding and 0.0 <= wind < 1e-6
    ref = _dense_window(loop, 1)
    assert all(abs(nu - ref_nu) <= eps for (nu, _, _), (ref_nu, _, _) in zip(sd.eigenpairs, ref))
    rep = rk.spectral_report_json(sd)
    assert rep["modes"] == 64
    assert rep["certified_bound"] == {"eigenvalue": eps, "winding": wind}
    # the whole operator is its own reference
    whole = rk.spectrum(rk.SymmetricLoop.constant(np.zeros((2, 2))))
    assert whole.modes == 256 and whole.certified_bound == (0.0, 0.0)
