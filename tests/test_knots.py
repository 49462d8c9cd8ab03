import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reebkit as rk
import reebkit.knots as knots
from reebkit.errors import PreconditionViolation
from reebkit.geometry import ambient_rotation, section_W
from reebkit.index import wind_relative
from reebkit.knots import coprime_residues, disk_profile, disk_profile_deriv, pdisk_arrays


# ---------------------------------------------------------------------------
# winding / monodromy arithmetic


def test_monodromy_from_winding():
    assert rk.monodromy_from_winding(5, 7) == 2
    assert rk.monodromy_from_winding(1, 123) == 0
    assert rk.monodromy_from_winding(5, -2) == 3


@given(p=st.integers(1, 60), w=st.integers(-200, 200), m=st.integers(-5, 5))
def test_monodromy_well_defined_under_frame_change(p, w, m):
    # changing the reference trivialization shifts the winding by a multiple
    # of p and leaves the class unchanged
    assert rk.monodromy_from_winding(p, w + p * m) == rk.monodromy_from_winding(p, w)


def test_lens_binding_monodromy():
    assert rk.lens_binding_monodromy(rk.LensParams(5, 2)) == 3
    assert rk.lens_binding_monodromy(rk.LensParams(2, 1)) == 1
    assert rk.lens_binding_monodromy(rk.LensParams(1, 1)) == 0


def test_self_linking_from_winding():
    assert rk.self_linking_from_winding(3, -1) == -3
    assert rk.self_linking_from_winding(5, 0) == 0
    assert rk.self_linking_from_winding(7, -1) == -7


def test_knot_data_validation():
    rk.KnotData(5, 2, -5)
    with pytest.raises(PreconditionViolation):
        rk.KnotData(6, 2, -6)  # monodromy not invertible
    with pytest.raises(PreconditionViolation):
        rk.KnotData(5, 2, -7)  # sl not divisible by p


# ---------------------------------------------------------------------------
# slopes


def _slope_intersections_brute(p, q, p2, q2, c1=0.2345678, c2=0.5432109):
    """Count intersections of torus curves t -> (pt, qt) and s -> (p2 s + c1, q2 s + c2).

    The generic offsets keep intersections off the cell boundaries.
    """
    count = 0
    for m in range(-abs(p2) - abs(p) - 2, abs(p2) + abs(p) + 3):
        for n_ in range(-abs(q2) - abs(q) - 2, abs(q2) + abs(q) + 3):
            det = -p * q2 + p2 * q
            if det == 0:
                return 0
            rhs1 = c1 + m
            rhs2 = c2 + n_
            # solve p t - p2 s = rhs1, q t - q2 s = rhs2
            t = (-q2 * rhs1 + p2 * rhs2) / det
            s = (-q * rhs1 + p * rhs2) / det
            if 0 <= t < 1 and 0 <= s < 1:
                count += 1
    return count


def test_slope_intersection_examples():
    assert rk.slope_intersection(1, 0, 0, 1) == 1
    assert rk.slope_intersection(5, 2, 5, 2) == 0
    assert rk.slope_intersection(5, 2, 5, 3) == 5
    assert rk.slope_intersection(5, 2, 5, 3) == _slope_intersections_brute(5, 2, 5, 3)


@given(
    p=st.integers(-6, 6), q=st.integers(-6, 6), p2=st.integers(-6, 6), q2=st.integers(-6, 6)
)
def test_slope_intersection_swap_invariant(p, q, p2, q2):
    assert rk.slope_intersection(p, q, p2, q2) == rk.slope_intersection(p2, q2, p, q)


@given(p=st.integers(0, 5), q=st.integers(0, 5), p2=st.integers(0, 5), q2=st.integers(0, 5))
def test_slope_intersection_matches_brute_force(p, q, p2, q2):
    assert rk.slope_intersection(p, q, p2, q2) == _slope_intersections_brute(p, q, p2, q2)


# ---------------------------------------------------------------------------
# classification


def test_lens_homeomorphic_examples():
    assert not rk.lens_homeomorphic(5, 1, 2)
    assert rk.lens_homeomorphic(7, 2, 4)  # 2*4 = 8 = 1 mod 7
    assert rk.lens_homeomorphic(9, 4, 4)


def test_lens_homotopy_examples():
    assert rk.lens_homotopy_equivalent(7, 1, 2)  # k=2: 4*2 = 8 = 1 mod 7
    assert not rk.lens_homotopy_equivalent(5, 1, 2)
    assert rk.lens_homotopy_equivalent(11, 3, 3)


def _brute_homotopy(p, q1, q2):
    return any(
        (k * k * q2 - q1) % p == 0 or (k * k * q2 + q1) % p == 0 for k in range(1, max(p, 2))
    )


def test_lens_homotopy_matches_brute_force():
    for p in range(2, 15):
        qs = coprime_residues(p)
        for q1 in qs:
            for q2 in qs:
                assert rk.lens_homotopy_equivalent(p, q1, q2) == _brute_homotopy(p, q1, q2)


def _scan_homotopy(p, q1, q2):
    """The former per-pair scan over k, kept as the reference for the residue sets."""
    if p == 1:
        return True
    q1 %= p
    q2 %= p
    for k in range(1, p):
        if (k * k * q2) % p == q1 or (-k * k * q2) % p == q1:
            return True
    return False


def test_classification_tables_match_per_pair_scan():
    for p in range(2, 61):
        tables = rk.classification_tables(p)
        qs = tables["residues"]
        assert tables["homotopy_equivalent"] == [[_scan_homotopy(p, a, b) for b in qs] for a in qs]
    # every residue pair, coprime or not, and residues outside 0..p-1
    for p in range(2, 31):
        for q1 in range(-1, p + 1):
            for q2 in range(-1, p + 1):
                assert rk.lens_homotopy_equivalent(p, q1, q2) == _scan_homotopy(p, q1, q2)
    assert rk.lens_homotopy_equivalent(1, 0, 0)


def test_equivalence_relation_axioms_small():
    for p in range(2, 21):
        qs = coprime_residues(p)
        for a in qs:
            assert rk.lens_homeomorphic(p, a, a)
            for b in qs:
                assert rk.lens_homeomorphic(p, a, b) == rk.lens_homeomorphic(p, b, a)
                if rk.lens_homeomorphic(p, a, b):
                    assert rk.lens_homotopy_equivalent(p, a, b)


def test_classification_tables_p5():
    tables = rk.classification_tables(5)
    assert tables["homeomorphism_classes"] == [[1, 4], [2, 3]]
    assert tables["homotopy_classes"] == [[1, 4], [2, 3]]


def test_classification_tables_p7():
    tables = rk.classification_tables(7)
    qs = tables["residues"]
    i1, i2 = qs.index(1), qs.index(2)
    assert tables["homotopy_equivalent"][i1][i2]
    assert not tables["homeomorphic"][i1][i2]


def test_classification_tables_p2():
    assert rk.classification_tables(2)["homeomorphism_classes"] == [[1]]


# ---------------------------------------------------------------------------
# the spanning disk


def test_profile_endpoints_and_monotone():
    rs = np.linspace(0.0, 1.0, 2001)
    f = disk_profile(rs)
    assert f[0] == 0.0 and f[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(f) > 0)
    # prescribed germs
    assert np.allclose(disk_profile(np.array([0.05, 0.1])), [0.05, 0.1])
    near1 = np.array([0.9, 0.97])
    assert np.allclose(disk_profile(near1), np.cos(0.5 * math.pi * (1 - near1)))


def test_profile_derivative_matches_finite_differences():
    rs = np.linspace(0.01, 0.99, 57)
    h = 1e-6
    fd = (disk_profile(rs + h) - disk_profile(rs - h)) / (2 * h)
    assert np.abs(disk_profile_deriv(rs) - fd).max() < 1e-8


def _disk_point(r, theta):
    return pdisk_arrays(r, theta)[0]


def test_pdisk_point_examples():
    center = _disk_point(0.0, 1.2)
    assert np.allclose(center, [0, 0, 1, 0])
    boundary = _disk_point(1.0, 0.7)
    assert np.allclose(boundary, [math.cos(0.7), math.sin(0.7), 0, 0], atol=1e-12)
    assert abs(np.linalg.norm(_disk_point(0.43, 2.0)) - 1.0) < 1e-12
    with pytest.raises(PreconditionViolation):
        _disk_point(math.nextafter(1.0, 2.0), 0.0)


def test_pdisk_boundary_covers_binding_p_to_one():
    L = rk.LensParams(5, 2)
    # the p boundary angles theta + 2 pi k / p are deck-equivalent lifts
    base = _disk_point(1.0, 0.3)
    for k in range(1, 5):
        other = _disk_point(1.0, 0.3 + 2 * math.pi * k / 5)
        assert rk.lens_equivalent(L, base, other)


def test_pdisk_immersion_away_from_boundary():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = float(rng.uniform(0.01, 0.999))
        th = float(rng.uniform(0, 2 * math.pi))
        dr = pdisk_arrays(r, th)[1]
        f = float(disk_profile(r))
        dth = np.array([-f * math.sin(th), f * math.cos(th), 0.0, 0.0])
        gram = np.array([[dr @ dr, dr @ dth], [dr @ dth, dth @ dth]])
        assert np.linalg.det(gram) > 1e-12


# ---------------------------------------------------------------------------
# numerical self-linking


def test_binding_sl_numeric_examples():
    assert rk.binding_sl_numeric(2) == -2
    assert rk.binding_sl_numeric(5) == -5
    assert rk.binding_sl_numeric(1) == -1


def test_binding_sl_matches_formula_small_p():
    # the disk is the same for every L(p, q): the numeric value reads p alone
    for p in range(1, 41):
        assert rk.binding_sl_numeric(p) == rk.self_linking_from_winding(p, -1)


def _uncached_collar_winding() -> int:
    """The collar winding as ``binding_sl_numeric`` computed it on every call before the cache."""
    thetas = 2.0 * math.pi * np.arange(knots._SL_SAMPLES) / knots._SL_SAMPLES
    pts, rad, _ = pdisk_arrays(1.0 - knots._SL_COLLAR, thetas)
    e1 = section_W(pts)
    e2 = ambient_rotation(e1)
    x_coords = np.tile([1.0, 0.0], (knots._SL_SAMPLES, 1))
    n_coords = np.stack([np.sum(rad * e1, axis=1), np.sum(rad * e2, axis=1)], axis=1)
    return wind_relative(n_coords, x_coords)


def _reference_pdisk_arrays(r, theta):
    """The disk's arrays as ``pdisk_arrays`` filled them before it packed ``pdisk_columns``."""
    r = np.asarray(r, dtype=float)
    f, df = disk_profile(r), disk_profile_deriv(r)
    g = np.sqrt(np.maximum(1.0 - f * f, 0.0))
    dg = -f * df / np.maximum(g, 1e-15)
    c, s = np.cos(theta), np.sin(theta)
    shape = np.broadcast_shapes(r.shape, c.shape) + (4,)
    pts, d_r, d_th = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    pts[..., 0], pts[..., 1], pts[..., 2] = f * c, f * s, g
    d_r[..., 0], d_r[..., 1], d_r[..., 2] = df * c, df * s, dg
    d_th[..., 0], d_th[..., 1] = -pts[..., 1], pts[..., 0]
    return pts, d_r, d_th


def test_packed_disk_columns_equal_filled_arrays():
    rs = np.linspace(0.0, 1.0, 11)
    ths = np.linspace(-7.0, 7.0, 13)
    shapes = [(0.3, 1.2), (0.999, ths), (rs, ths[:11]), (rs[:, None], ths[None, :]), (1.0, -0.0)]
    for r, theta in shapes:
        got = pdisk_arrays(r, theta)
        want = _reference_pdisk_arrays(r, theta)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # the columns keep only the axes they vary on
        pts, d_r, d_th = knots.pdisk_columns(r, theta)
        assert pts[2].shape == np.shape(r) and d_th[3].shape == (1,) * pts[0].ndim


def test_cached_collar_winding_equals_uncached():
    knots._collar_winding.cache_clear()
    wind = _uncached_collar_winding()
    assert knots._collar_winding() == wind == -1
    assert knots._collar_winding.cache_info().currsize == 1
    for p in (1, 2, 7, 2**53):
        assert rk.binding_sl_numeric(p) == p * wind
    assert knots._collar_winding.cache_info().misses == 1


def test_binding_knot_data():
    data = rk.binding_knot_data(rk.LensParams(5, 2))
    assert data == rk.KnotData(5, 3, -5)
    assert rk.binding_knot_data(rk.LensParams(1, 1)) == rk.KnotData(1, 0, -1)
