import json
import logging
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import reebkit as rk
import reebkit.section as section
from reebkit.cli import main
from reebkit.errors import IllConditioned, IntegrationFailure, PreconditionViolation
from reebkit.geometry import _reeb_rows
from reebkit.integrate import _MAX_STEPS
from reebkit.knots import disk_profile, pdisk_arrays
from reebkit.section import _edge_action, page_form_samples, sample_starts
from test_geometry import _reference_dlambda_rows
from test_golden import grid_systems
from test_knots import _reference_pdisk_arrays

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# pages


def test_build_page_round_quotient(round_l21):
    page = rk.build_page(round_l21, 0.0)
    assert (page.system, page.phase, page.p) == (round_l21, 0.0, 2)
    # binding is the quotient Hopf circle: boundary points sit on the z-circle
    b = rk.page_point(page, 1.0, 0.4)
    assert abs(np.linalg.norm(b[:2]) - 1.0) < 1e-12 and np.allclose(b[2:], 0)


def test_build_page_sphere_case(ell_s3):
    page = rk.build_page(ell_s3, 0.0)
    assert page.p == 1


def _grid_w_phase_rates(sys_, phase):
    """Rate of the w-phase along the Reeb field on a 100 x 100 grid of the page interior."""
    rs = np.linspace(1e-3, 1.0 - 1e-3, 100)
    ths = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    pts = pdisk_arrays(rs[:, None], ths[None, :], phase)[0].reshape(-1, 4)
    reeb = _reeb_rows(sys_, pts)
    wz = pts[:, 2] + 1j * pts[:, 3]
    rw = reeb[:, 2] + 1j * reeb[:, 3]
    return np.imag(np.conj(wz) * rw) / np.abs(wz) ** 2


@pytest.mark.parametrize("name", sorted(grid_systems()))
def test_page_rate_is_w2_on_a_grid(name):
    # the verify report reads the page rate as w2 in closed form; the grid is the reference
    sys_ = rk.system_from_json(json.loads(grid_systems()[name]))
    w2 = sys_.plane_rates()[1]
    for phase in (0.0, 2.0 * math.pi / sys_.p, 1.3):
        rates = _grid_w_phase_rates(sys_, phase)
        assert np.all(rates > 0)
        assert abs(rates.min() - w2) <= 1e-12 * w2
    report, _ = rk.verify_gss_conditions(sys_, C=0.05, n_samples=0)
    assert report["page"]["min_transverse"] == w2


def test_round_sphere_classical_section():
    # the classical disk-like section: every return takes one Hopf period
    page = rk.build_page(rk.ContactSystem("round"), 0.0)
    rec = rk.return_map(page, (0.5, 1.0))
    assert rec.return_time == pytest.approx(math.pi, abs=1e-9)


def test_page_phase_shift_gives_same_page_under_deck(ell_l21):
    L = ell_l21.lens
    pageA = rk.build_page(ell_l21, 0.0)
    pageB = rk.build_page(ell_l21, 2 * math.pi / L.p)
    for (r, th) in [(0.3, 0.1), (0.7, 2.2), (0.5, 4.0)]:
        ptB = rk.page_point(pageB, r, th)
        # the other page's points lie on pageA's deck orbit of slices
        rA, _thA = rk.page_coords(pageA, ptB)
        assert rA == pytest.approx(r, abs=1e-10)


def test_page_coords_round_trip(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    for (r, th) in [(0.2, 0.0), (0.55, 1.0), (0.9, -2.0)]:
        pt = rk.page_point(page, r, th)
        r2, th2 = rk.page_coords(page, pt)
        assert r2 == pytest.approx(r, abs=1e-10)
        assert math.remainder(th2 - th, 2 * math.pi) == pytest.approx(0.0, abs=1e-10)


def test_page_coords_rejects_off_page_points(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    off = rk.flow(ell_l21, rk.page_point(page, 0.5, 0.5), 0.1)
    with pytest.raises(PreconditionViolation):
        rk.page_coords(page, off)


# ---------------------------------------------------------------------------
# the return map


def test_return_time_near_center(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    rec = rk.return_map(page, (1e-3, 0.7))
    assert rec.return_time == pytest.approx(SQRT2 / 2, abs=1e-9)


def test_return_forward_backward_inverse(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    start = (0.62, 1.9)
    fwd = rk.return_map(page, start)
    back = rk.return_map(page, fwd.image, "backward")
    assert back.image[0] == pytest.approx(start[0], abs=1e-6)
    assert math.remainder(back.image[1] - start[1], 2 * math.pi) == pytest.approx(
        0.0, abs=1e-6
    )


def test_round_quotient_return_time_independent_of_start(round_l21):
    page = rk.build_page(round_l21, 0.0)
    expected = (2 * math.pi / 2) / 2.0  # one slice gap at w-phase rate 2
    for start in [(0.2, 0.0), (0.5, 2.0), (0.8, 4.5)]:
        rec = rk.return_map(page, start)
        assert rec.return_time == pytest.approx(expected, abs=1e-9)


def test_return_map_rejects_boundary_start(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    with pytest.raises(PreconditionViolation):
        rk.return_map(page, (1.0, 0.0))


def _numeric_return(page, start, direction="forward", tol=1e-10):
    """Return time and image of the numeric flow: ``_first_crossing``, then ``page_coords``.

    The scan runs over twice the closed-form return time, with its bracket
    refined by ``brentq`` to ``tol`` in time.
    """
    level = 2.0 * math.pi / page.p
    budget = 2.0 * level / page.system.plane_rates()[1]
    sgn = 1 if direction == "forward" else -1
    pt0 = rk.page_point(page, *start)
    t_star, pt = section._first_crossing(page.system, pt0, sgn, level, budget, tol)
    return t_star, rk.page_coords(page, pt)


def test_return_map_numeric_flow_agrees(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    a = rk.return_map(page, (0.4, 0.8))
    b_time, b_image = _numeric_return(page, (0.4, 0.8), tol=1e-9)
    assert a.return_time == pytest.approx(b_time, abs=1e-6)
    assert a.image[0] == pytest.approx(b_image[0], abs=1e-6)


DIFF_LENSES = [None, (2, 1), (3, 2), (5, 2), (12, 5)]
DIFF_B = (1.05, SQRT2, 1.9, 3.7)


@pytest.mark.parametrize("lens", DIFF_LENSES, ids=str)
def test_closed_return_map_equals_numeric(lens):
    """The closed-form return time and image against the numeric flow's scanned crossing."""
    rng = np.random.default_rng(7)
    for b in DIFF_B:
        sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=rk.LensParams(*lens) if lens else None)
        page = rk.build_page(sys_, 0.0)
        (start,) = zip(*sample_starts(rng, 1))
        for direction in ("forward", "backward"):
            closed = rk.return_map(page, start, direction)
            numeric_time, numeric_image = _numeric_return(page, start, direction)
            assert closed.return_time == 2.0 * math.pi / page.p / sys_.plane_rates()[1]
            assert abs(closed.return_time - numeric_time) < 1e-6, (b, direction)
            assert abs(closed.image[0] - numeric_image[0]) < 1e-6, (b, direction)
            assert abs(math.remainder(closed.image[1] - numeric_image[1], 2.0 * math.pi)) < 1e-6


def _refuse(*_args, **_kwargs):
    raise AssertionError("the closed-form route calls no numeric reference")


def test_return_map_reaches_no_flow_or_profile_inverse(monkeypatch, tmp_path):
    # nor does verify reach the area quadratures: it reads the area constant,
    # area preservation and the fixed point off the symmetry
    for name in ("flow", "page_point", "page_coords", "_profile_inverse", "brentq",
                 "disk_area_bound", "_page_form_integral", "quad_dlambda_area"):
        monkeypatch.setattr(section, name, _refuse)
    for lens in DIFF_LENSES:
        for b in DIFF_B:
            sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=rk.LensParams(*lens) if lens else None)
            page = rk.build_page(sys_, 0.0)
            for direction in ("forward", "backward"):
                rk.return_map(page, (0.5, 0.3), direction)
    cfg = '{"family": "ellipsoid", "a": 1.0, "b": 1.4142135623730951, "lens": {"p": 3, "q": 2}}'
    assert main(["verify", "--config", cfg, "--action-bound", "3", "--samples", "20",
                 "--out", str(tmp_path / "v.json"), "--csv", str(tmp_path / "v.csv")]) == 0
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["page"]["area_bound"] == 2.0
    assert report["fixed_point"]["coords"] == [0.0, 0.0]


@pytest.mark.parametrize("lens", DIFF_LENSES, ids=str)
def test_return_map_keeps_the_start_radius_bit_for_bit(lens):
    # the flow keeps |z|; inverting the disk profile lost the radius at both ends
    radii = (1e-300, 1e-20, 0.37, 1.0 - 1e-6, math.nextafter(1.0, 0.0))
    for b in DIFF_B:
        sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=rk.LensParams(*lens) if lens else None)
        page = rk.build_page(sys_, 0.0)
        for r in radii:
            for direction in ("forward", "backward"):
                assert rk.return_map(page, (r, 0.3), direction).image[0] == r, (b, r, direction)


HUGE_ANGLES = (-math.pi, math.pi, 123456.789, 1e17, 1e300)


@pytest.mark.parametrize("lens", DIFF_LENSES, ids=str)
def test_return_map_angles_match_the_flowed_point(lens):
    """Image angles against the start point flowed for the return time and read by ``page_coords``.

    Adding the turn and reducing with ``math.remainder(theta + turn, 2 pi)``
    misses by about theta / 2 pi * 2.4e-16, since fl(2 pi) is not 2 pi: 5e-12
    at theta = 123456.789 and every digit at 1e17.  The numeric flow's own
    integration error, up to 3.4e-10 here, bounds the check against
    ``_numeric_return``.
    """
    for b in DIFF_B:
        sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=rk.LensParams(*lens) if lens else None)
        page = rk.build_page(sys_, 0.0)
        for theta in HUGE_ANGLES:
            pt0 = rk.page_point(page, 0.5, theta)
            for sgn, direction in ((1, "forward"), (-1, "backward")):
                rec = rk.return_map(page, (0.5, theta), direction)
                flowed = rk.page_coords(page, rk.flow(sys_, pt0, sgn * rec.return_time))
                assert abs(math.remainder(rec.image[1] - flowed[1], 2.0 * math.pi)) < 1e-12
                if theta in (-math.pi, 1e17):
                    _t, numeric = _numeric_return(page, (0.5, theta), direction)
                    assert abs(math.remainder(rec.image[1] - numeric[1], 2.0 * math.pi)) < 1e-9


def test_first_crossing_refuses_a_budget_below_the_return_time(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    level = math.pi
    t_return = level / ell_l21.plane_rates()[1]
    pt0 = rk.page_point(page, 0.5, 0.3)
    t_star, _pt = section._first_crossing(ell_l21, pt0, 1, level, 1.01 * t_return, 1e-10)
    assert abs(t_star - t_return) < 1e-9
    with pytest.raises(IntegrationFailure, match="no page crossing within time budget"):
        section._first_crossing(ell_l21, pt0, 1, level, 0.99 * t_return, 1e-10)


@pytest.mark.parametrize("route", ["closed", "numeric"])
def test_return_map_refuses_a_scan_beyond_the_step_ceiling(route):
    # b/a = 1e6: a scan over twice the return time would take about 3.2e7
    # steps; the closed route is refused as well, since a turn of 6e6 rad
    # leaves the image's angle no digits
    page = rk.build_page(rk.ContactSystem("ellipsoid", a=1.0, b=1e6), 0.0)
    with pytest.raises(IntegrationFailure, match=f"needs more than {_MAX_STEPS} steps"):
        if route == "closed":
            rk.return_map(page, (0.5, 0.0))
        else:
            _numeric_return(page, (0.5, 0.0))


@pytest.mark.parametrize("flow_method", ["auto", "x"])
def test_return_map_refuses_an_unknown_flow_method(ell_l21, flow_method):
    # the return map has one route and takes no flow method; flow names its two
    page = rk.build_page(ell_l21, 0.0)
    with pytest.raises(TypeError, match="flow_method"):
        rk.return_map(page, (0.5, 0.3), flow_method=flow_method)
    with pytest.raises(ValueError, match="unknown method"):
        rk.flow(ell_l21, rk.page_point(page, 0.5, 0.3), 1.0, method=flow_method)


def test_return_map_deck_equivariance(ell_l21):
    L = ell_l21.lens
    page = rk.build_page(ell_l21, 0.0)
    start = (0.45, 0.9)
    rec = rk.return_map(page, start)
    # relabel the start by a deck element: same page, rotated coordinates
    moved = rk.deck_action(L, 1, rk.page_point(page, *start))
    r_m, th_m = rk.page_coords(page, moved)
    rec2 = rk.return_map(page, (r_m, th_m))
    assert rec2.return_time == pytest.approx(rec.return_time, abs=1e-9)
    assert rec2.image[0] == pytest.approx(rec.image[0], abs=1e-9)
    shift = math.remainder(rec2.image[1] - rec.image[1], 2 * math.pi)
    expect = math.remainder(th_m - start[1], 2 * math.pi)
    assert shift == pytest.approx(expect, abs=1e-9)


# ---------------------------------------------------------------------------
# fixed point and linking


def test_fixed_point_at_page_center(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    r, _th = rk.fixed_point(page)
    assert r < 1e-6
    rec = rk.return_map(page, (1e-3, 0.0))
    _, Kp = rk.principal_orbits(ell_l21)
    assert rec.return_time == pytest.approx(Kp.prime_period, abs=1e-9)


@pytest.mark.parametrize(
    "b,lens", [(1.4, (3, 2)), (SQRT2, (12, 5)), (SQRT2, (2, 1)), (1.05, (3, 2)), (3.7, (5, 2))]
)
def test_fixed_point_at_the_centre_is_the_origin(b, lens):
    # every return turns the page rigidly about its centre, whatever the turn
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=rk.LensParams(*lens))
    assert rk.fixed_point(rk.build_page(sys_, 0.0)) == (0.0, 0.0)


def test_linking_of_second_orbit(ell_l21):
    _, Kp = rk.principal_orbits(ell_l21)
    assert rk.linking_with_binding(ell_l21, Kp) == 1
    assert rk.linking_with_binding(ell_l21, Kp.iterate(2)) == 2


def test_linking_positive_for_catalogued_orbits(ell_l21):
    for orbit in rk.catalog(ell_l21, 3.0):
        if orbit.label == "K":
            continue
        assert rk.linking_with_binding(ell_l21, orbit) >= 1


def test_linking_rejects_binding(ell_l21):
    K, _ = rk.principal_orbits(ell_l21)
    with pytest.raises(PreconditionViolation):
        rk.linking_with_binding(ell_l21, K)


def _reference_linking(sys, orbit, page):
    """Signed page crossings over one period, by a scan that steps ``flow``."""
    level = 2.0 * math.pi / page.p
    w1, w2 = sys.plane_rates()
    # generic time offset so the scan does not start on a crossing
    pt0 = rk.flow(sys, orbit.anchor, 0.37 * level / max(w1, w2))
    T = orbit.period
    dt = level / max(w1, w2) / 16.0
    h_prev = math.atan2(pt0[3], pt0[2])
    t_prev, count = 0.0, 0
    while t_prev < T:
        t = min(t_prev + dt, T + 1e-12)
        pt = rk.flow(sys, pt0, t)
        h = h_prev + math.remainder(math.atan2(pt[3], pt[2]) - h_prev, 2.0 * math.pi)
        ell_prev, ell = (h_prev - page.phase) / level, (h - page.phase) / level
        crossings = math.floor(max(ell_prev, ell)) - math.floor(min(ell_prev, ell))
        count += crossings if ell > ell_prev else -crossings
        t_prev, h_prev = t, h
    return count


LINK_B = DIFF_B + (17 + math.pi / 7,)


@pytest.mark.parametrize("lens", DIFF_LENSES, ids=str)
def test_closed_linking_equals_flow_stepping_scan(lens):
    for b in LINK_B:
        sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=rk.LensParams(*lens) if lens else None)
        page = rk.build_page(sys_, 0.0)
        _, Kp = rk.principal_orbits(sys_)
        for m in range(1, 6):
            orbit = Kp.iterate(m)
            closed = rk.linking_with_binding(sys_, orbit)
            assert closed == _reference_linking(sys_, orbit, page) == m, (b, m)


def test_linking_refuses_a_near_binding_orbit_off_a_whole_count():
    # |w| = 1e-10 keeps the orbit off the binding; over period 1 it turns
    # w2 / 2 pi = 0.7071 page levels, which the scan counted as no crossing
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=SQRT2)
    page = rk.build_page(sys_, 0.0)
    anchor = np.array([math.sqrt(1.0 - 1e-20), 0.0, 1e-10, 0.0])
    orbit = rk.ClosedOrbit(sys_, anchor, 1.0, label="near-K")
    assert _reference_linking(sys_, orbit, page) == 0
    with pytest.raises(IllConditioned, match="0.707106781187"):
        rk.linking_with_binding(sys_, orbit)


# ---------------------------------------------------------------------------
# areas


def test_page_form_positive_on_interior(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    _rs, _ths, vals = page_form_samples(page, 101, 64)
    assert vals.min() > 0


def test_disk_area_bound_round_is_one_plus_pi():
    for p, q in [(1, 1), (2, 1), (3, 1)]:
        sys_ = rk.ContactSystem("round", lens=rk.LensParams(p, q))
        page = rk.build_page(sys_, 0.0)
        # Stokes oracle: the integral of the positive form equals the action
        # of the boundary circle, the prime period pi of the Hopf fiber
        assert rk.disk_area_bound(page) == pytest.approx(1 + math.pi, abs=1e-5)


def test_disk_area_bound_ellipsoid_is_one_plus_a(ell_l21, ell_s3):
    for sys_ in (ell_l21, ell_s3):
        page = rk.build_page(sys_, 0.0)
        assert rk.disk_area_bound(page) == pytest.approx(1 + sys_.a, abs=1e-5)


@pytest.mark.parametrize("lens", DIFF_LENSES, ids=str)
def test_report_area_bound_is_one_plus_a(lens):
    # Stokes: the page integral of dlambda is the action of the page boundary;
    # the 2d quadrature of |dlambda| is the independent reference
    for b in (1.05, SQRT2, 3.7):
        for a in (1.0, 2.0):
            sys_ = rk.ContactSystem("ellipsoid", a=a, b=b, lens=rk.LensParams(*lens) if lens else None)
            report, _ = rk.verify_gss_conditions(sys_, C=0.1, n_samples=0)
            bound = report["page"]["area_bound"]
            assert abs(bound - (1.0 + a)) <= 1e-14, (b, a)
            assert rk.disk_area_bound(rk.build_page(sys_, 0.0)) == pytest.approx(bound, rel=1e-6)


def test_gauss_nodes_equal_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(32)
    assert section._GAUSS_X.tobytes() == x.tobytes()
    assert section._GAUSS_W.tobytes() == w.tobytes()


@pytest.mark.parametrize("system", sorted(grid_systems()))
def test_page_form_equals_the_form_on_filled_arrays_bit_for_bit(system):
    # the form as page_form_samples formed it on the (101, 100, 4) arrays of the grid
    sys_ = rk.system_from_json(json.loads(grid_systems()[system]))
    for phase in (0.0, 2.0 * math.pi / sys_.p, 1.3):
        page = rk.build_page(sys_, phase)
        rs, ths, vals = page_form_samples(page, 101, 100)
        pts, d_r, d_th = _reference_pdisk_arrays(rs[:, None], ths[None, :], phase)
        want = _reference_dlambda_rows(
            sys_, pts.reshape(-1, 4), d_r.reshape(-1, 4), d_th.reshape(-1, 4)
        ).reshape(101, 100)
        assert vals.tobytes() == want.tobytes(), phase


def test_quad_area_matches_form_integral(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    # small quadrilateral: boundary action vs integrand times coordinate area
    r0, th0, s = 0.5, 1.0, 1e-3
    corners = [(r0, th0), (r0 + s, th0), (r0 + s, th0 + s), (r0, th0 + s)]
    area = rk.quad_dlambda_area(page, corners)
    _rs, _ths, vals = page_form_samples(page, 3, 4)
    from reebkit.geometry import _dlambda_rows

    pts, d_r, d_th = pdisk_arrays(r0 + s / 2, th0 + s / 2, page.phase)
    q = _dlambda_rows(page.system, pts.reshape(-1, 4), d_r.reshape(-1, 4), d_th.reshape(-1, 4))[0]
    assert area == pytest.approx(q * s * s, rel=1e-4)


def test_return_map_preserves_quad_areas(ell_l21):
    page = rk.build_page(ell_l21, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        r0 = float(rng.uniform(0.2, 0.7))
        th0 = float(rng.uniform(0, 2 * math.pi))
        s = 0.02
        corners = [(r0, th0), (r0 + s, th0), (r0 + s, th0 + s), (r0, th0 + s)]
        a0 = rk.quad_dlambda_area(page, corners)
        mapped = [rk.return_map(page, c).image for c in corners]
        a1 = rk.quad_dlambda_area(page, mapped)
        assert abs(a1 - a0) / abs(a0) < 1e-4


# ---------------------------------------------------------------------------
# the verifier


def test_verifier_all_pass_small(ell_l21):
    report, samples = rk.verify_gss_conditions(ell_l21, C=3.0, n_samples=10, seed=1)
    assert report["all_pass"], report["violated"]
    assert report["binding"]["sl_numeric"] == -2
    assert report["binding"]["mu_cz_Kp"] == 3
    assert len(samples) == 10
    assert report["gss_sampling"] == {"n": 10, "forward_ok": 10, "backward_ok": 10}
    assert report["decided_by_symmetry"] == ["gss_returns"]
    assert report["fixed_point"]["distance_to_center"] < 1e-6
    assert report["pstar"]["members"] == []
    assert "action <= 3" in report["pstar"]["note"]


def test_verifier_skips_dynamics_without_samples(ell_l21):
    report, samples = rk.verify_gss_conditions(ell_l21, C=2.0, n_samples=0, seed=0)
    assert report["gss_sampling"] == {"status": "skipped"}
    assert report["decided_by_symmetry"] == []
    assert len(samples) == 0
    assert report["all_pass"]


def test_verifier_flags_a_theta_dependent_form(ell_l21, monkeypatch):
    real = section.page_form_samples

    def tilted(page, n_r, n_th):
        rs, ths, vals = real(page, n_r, n_th)
        return rs, ths, vals * (1.0 + 1e-3 * np.cos(ths))[None, :]

    monkeypatch.setattr(section, "page_form_samples", tilted)
    report, _ = rk.verify_gss_conditions(ell_l21, C=0.3, n_samples=0)
    assert report["violated"] == ["area_preservation"]
    assert report["area_preservation"]["form_theta_defect"] == pytest.approx(2e-3 / 1.001, rel=1e-9)


def test_verifier_vacuous_below_min_period(ell_l21):
    report, _ = rk.verify_gss_conditions(ell_l21, C=0.3, n_samples=0, seed=0)
    assert report["pstar"]["orbits"] == []
    assert report["checks"]["pstar_linking"]


def test_verifier_swapped_roles_long_binding():
    # binding is the long orbit when a > b; the index changes accordingly
    sys_ = rk.ContactSystem("ellipsoid", a=SQRT2, b=1.0, lens=rk.LensParams(2, 1))
    report, _ = rk.verify_gss_conditions(sys_, C=2.0, n_samples=5, seed=0)
    assert report["binding"]["mu_cz_Kp"] == 5  # mu_tilde({1 + sqrt2})
    assert report["all_pass"], report["violated"]


def test_verifier_extreme_capacity_ratio():
    sys_ = rk.ContactSystem(
        "ellipsoid", a=1.0, b=17.0 + math.pi / 7, lens=rk.LensParams(12, 5)
    )
    report, _ = rk.verify_gss_conditions(sys_, C=1.0, n_samples=5, seed=0)
    assert report["all_pass"], report["violated"]
    assert report["binding"]["sl_numeric"] == -12
    assert report["fixed_point"]["distance_to_center"] < 1e-6


def test_verifier_flags_integer_capacity_ratio():
    # a/b integral makes the binding rotation number integral: degenerate
    sys_ = rk.ContactSystem("ellipsoid", a=3.0, b=1.0, lens=rk.LensParams(2, 1))
    report, _ = rk.verify_gss_conditions(sys_, C=0.5, n_samples=0, seed=0)
    assert report["binding"]["degenerate"]
    assert "index" in report["violated"]


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2), (4, 3)])
def test_verifier_other_lens_parameters(p, q):
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(p, q))
    report, _ = rk.verify_gss_conditions(sys_, C=2.0, n_samples=4, seed=1)
    assert report["all_pass"], report["violated"]
    assert report["binding"]["sl_numeric"] == -p
    assert report["binding"]["mu_cz_Kp"] == 3


def test_verifier_logs_its_stages_at_info(ell_l21, caplog):
    # the reebkit logger stays silent at the default WARNING level ...
    caplog.set_level(logging.WARNING, logger="reebkit")
    rk.verify_gss_conditions(ell_l21, C=2.0, n_samples=2)
    assert caplog.records == []
    # ... and notes each stage at INFO
    caplog.set_level(logging.INFO, logger="reebkit")
    rk.verify_gss_conditions(ell_l21, C=2.0, n_samples=2)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("reebkit", logging.INFO, stage)
        for stage in ("binding invariants", "page construction", "fixed point",
                      "catalogued orbits and linking", "return sampling", "area preservation")
    ]


def test_sample_starts_seeded_and_interior():
    rng = np.random.default_rng(42)
    starts = sample_starts(rng, 50)
    radii, thetas = starts
    assert len(radii) == len(thetas) == 50
    assert all(0 < r < 1 for r in radii)
    rng2 = np.random.default_rng(42)
    assert starts == sample_starts(rng2, 50)


def test_edge_action_closes_to_boundary_period(round_l21):
    # the full boundary circle of the page has action = upstairs prime period
    page = rk.build_page(round_l21, 0.0)
    total = 0.0
    n = 64
    for j in range(n):
        a = (1.0, 2 * math.pi * j / n)
        b = (1.0, 2 * math.pi * (j + 1) / n)
        total += _edge_action(page, a, b)
    assert total == pytest.approx(math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# one lift per principal orbit


def test_verifier_linearizes_each_principal_orbit_once(ell_l21, linearize_calls):
    report, _ = rk.verify_gss_conditions(ell_l21, C=5.0, n_samples=0, seed=0)
    assert linearize_calls == ["K", "K'"]

    # the shared lifts give the same rows as independent per-orbit calls
    K, _ = rk.principal_orbits(ell_l21)
    binding = rk.orbit_index(K, 2)
    assert report["binding"]["mu_cz_Kp"] == binding.mu
    assert report["binding"]["rho_Kp"] == binding.rho
    entries = rk.catalog(ell_l21, 5.0)
    assert len(report["pstar"]["orbits"]) == len(entries) == 17
    for row, entry in zip(report["pstar"]["orbits"], entries):
        res = rk.orbit_index(entry)
        assert (row["label"], row["multiplicity"]) == (entry.label, entry.multiplicity)
        assert (row["mu_cz"], row["rho"]) == (res.mu, res.rho)


@pytest.mark.parametrize("name", sorted(grid_systems()))
def test_report_contractible_column_is_the_deck_formula(name):
    # the lift reads an iterate on the sphere exactly when m d = 0 mod p, with
    # d the deck power of its prime orbit; the largest bound below 5 whose
    # catalog keeps K and K' periods apart
    sys_ = rk.system_from_json(json.loads(grid_systems()[name]))
    for bound in (5.0, 3.0, 1.5):
        try:
            report, _ = rk.verify_gss_conditions(sys_, C=bound, n_samples=0)
            break
        except rk.DegenerateInput:
            continue
    deck = {orbit.label: orbit.deck_power for orbit in rk.principal_orbits(sys_)}
    rows = report["pstar"]["orbits"]
    assert len(rows) >= 6
    for row in rows:
        assert row["contractible"] == ((row["multiplicity"] * deck[row["label"]]) % sys_.p == 0)
    assert sum(row["contractible"] for row in rows) < len(rows) or sys_.p == 1


def test_verifier_empty_catalog_linearizes_only_the_binding(ell_l21, linearize_calls):
    report, _ = rk.verify_gss_conditions(ell_l21, C=0.3, n_samples=0, seed=0)
    assert report["pstar"]["orbits"] == []
    assert linearize_calls == ["K"]


# ---------------------------------------------------------------------------
# the positive-linking check


def _report_rho_one_for_kprime_squared(monkeypatch):
    """Make the lift of K' on L(2,1) read rho = 1 for K'^2, a contractible iterate.

    No ellipsoid has a contractible K' iterate with rho = 1 (rho = j (1 + b/a)
    > 1), so the linking branch of the verifier only runs on such a reader.
    """
    real_lift = section._orbit_lift

    def lift(orbit):
        reader = real_lift(orbit)
        if orbit.label != "K'":
            return reader
        return lambda k_eff: reader(k_eff)._replace(rho=1.0) if k_eff == 2 else reader(k_eff)

    monkeypatch.setattr(section, "_orbit_lift", lift)


def test_verifier_checks_the_linking_of_rotation_number_one_orbits(ell_l21, monkeypatch):
    _report_rho_one_for_kprime_squared(monkeypatch)
    report, _ = rk.verify_gss_conditions(ell_l21, C=3.0, n_samples=0, seed=0)
    members = report["pstar"]["members"]
    assert [(m["label"], m["multiplicity"]) for m in members] == [("K'", 2)]
    w2, T = ell_l21.plane_rates()[1], members[0]["period"]
    assert members[0]["linking_with_binding"] == round(w2 * T * 2 / (2.0 * math.pi)) == 2
    assert report["checks"]["pstar_linking"] and report["all_pass"]
    # an orbit that does not link the binding positively fails the check
    monkeypatch.setattr(section, "linking_with_binding", lambda sys, orbit: 0)
    report, _ = rk.verify_gss_conditions(ell_l21, C=3.0, n_samples=0, seed=0)
    assert report["violated"] == ["pstar_linking"]
    cfg = '{"family": "ellipsoid", "a": 1.0, "b": 1.4142135623730951, "lens": {"p": 2, "q": 1}}'
    assert main(["verify", "--config", cfg, "--action-bound", "3", "--samples", "0"]) == 3


# ---------------------------------------------------------------------------
# float-arithmetic scans against a reference that steps ``flow``


def _reference_first_crossing(sys, pt0, direction, level, time_budget, tol, flow_method="closed"):
    """The crossing scan that calls ``geometry.flow`` at every phase evaluation."""
    w1, w2 = sys.plane_rates()
    dt = level / max(w1, w2) / 16.0
    if time_budget / dt > _MAX_STEPS:
        raise IntegrationFailure("scan too long")

    def phase_rel(t, href):
        pt = rk.geometry.flow(sys, pt0, direction * t, method=flow_method)
        return href + math.remainder(math.atan2(pt[3], pt[2]) - href, 2.0 * math.pi)

    h0 = math.atan2(pt0[3], pt0[2])
    h_prev, t_prev, g_prev, t = h0, 0.0, 0.0, 0.0
    while t < time_budget:
        t = min(t_prev + dt, time_budget)
        h = phase_rel(t, h_prev)
        g = math.sin(math.pi * (h - h0) / level)
        if t_prev > 0.0 and (
            g == 0.0 or (g_prev != 0.0 and math.copysign(1, g) != math.copysign(1, g_prev))
        ):
            href = h_prev

            def gfun(tc):
                return math.sin(math.pi * (phase_rel(tc, href) - h0) / level)

            t_star = brentq(gfun, t_prev, t, xtol=tol)
            return t_star, rk.geometry.flow(sys, pt0, direction * t_star, method=flow_method)
        t_prev, h_prev, g_prev = t, h, g
    raise IntegrationFailure("no crossing")


def _reference_profile_inverse(value):
    """``brentq`` on the numpy profile ``knots.disk_profile``."""
    value = min(max(value, 0.0), 1.0)
    if value <= 0.0:
        return 0.0
    if value >= 1.0:
        return 1.0
    return brentq(lambda r: float(disk_profile(r)) - value, 0.0, 1.0, xtol=1e-14)


def _reference_return_map(page, start, direction="forward", tol=1e-10):
    """The return map of the crossing scan that steps ``flow``, with the numpy profile."""
    r, theta = start
    sgn = 1 if direction == "forward" else -1
    level = 2.0 * math.pi / page.p
    budget = 2.0 * level / page.system.plane_rates()[1]
    t_star, pt = _reference_first_crossing(
        page.system, rk.page_point(page, r, theta), sgn, level, budget, tol
    )
    return section.ReturnRecord(return_time=t_star, image=section.page_coords(page, pt))


def _use_reference(monkeypatch, turned: dict):
    """Route ``section._returns`` through ``_reference_return_map``; count starts in ``turned``.

    ``_returns`` turns the unit columns of the start angles only, so the
    reference takes each start's radius and angle from the drawn starts and
    checks the columns against those angles; the call before the draw is
    the centre's.
    """
    drawn = {}
    real_starts = section.sample_starts

    def starts(rng, n):
        drawn["radii"], drawn["thetas"] = real_starts(rng, n)
        return drawn["radii"], drawn["thetas"]

    def returns(page, xy, direction):
        radii, thetas = drawn.get("radii", [0.0]), drawn.get("thetas", [0.0])
        assert all(map(np.array_equal, xy, section._unit_columns(thetas))), direction
        recs = [_reference_return_map(page, (r, th), direction)
                for r, th in zip(radii, thetas, strict=True)]
        turned[direction] += len(recs)
        # every start's scan returns in the same time, to the digits a report prints
        assert len({f"{rec.return_time:.12g}" for rec in recs}) == 1, direction
        # and at the start radius, which the CSV prints for the images
        for r, rec in zip(radii, recs):
            assert r == 0.0 or f"{rec.image[0]:.12g}" == f"{r:.12g}", (r, rec.image)
        return recs[0].return_time, [rec.image[1] for rec in recs]

    monkeypatch.setattr(section, "sample_starts", starts)
    monkeypatch.setattr(section, "_returns", returns)
    monkeypatch.setattr(section, "_profile_inverse", _reference_profile_inverse)


REF_RADII = (1e-3, 0.05, 0.5, 0.999)
REF_ANGLES = (
    -math.pi, math.nextafter(-math.pi, 0.0), -1e-12, 0.0, 1e-12,
    math.nextafter(math.pi, 0.0), math.pi,
)


@pytest.mark.parametrize("lens", [None, (2, 1), (3, 2), (5, 2)], ids=str)
def test_return_map_equals_flow_stepping_reference(lens):
    """The closed return time is level / w2 exactly and within ``tol`` of a scan stepping ``flow``."""
    sys_ = rk.ContactSystem(
        "ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(*lens) if lens else None
    )
    page = rk.build_page(sys_, 0.0)
    level = 2.0 * math.pi / page.p
    w2 = sys_.plane_rates()[1]
    budget, tol = 2.0 * level / w2, 1e-10
    for start in [(r, th) for r in REF_RADII for th in REF_ANGLES]:
        pt0 = rk.page_point(page, *start)
        for sgn, direction in ((1, "forward"), (-1, "backward")):
            t_ref, _pt = _reference_first_crossing(sys_, pt0, sgn, level, budget, tol)
            rec = rk.return_map(page, start, direction)
            assert rec.return_time == level / w2
            assert abs(t_ref - rec.return_time) <= tol, (start, direction)


def test_profile_inverse_equals_brentq_on_numpy_profile():
    values = np.linspace(-0.1, 1.1, 241).tolist() + [1e-12, 1.0 - 1e-12]
    values += np.random.default_rng(1).uniform(0.0, 1.0, 200).tolist()
    for v in values:
        assert section._profile_inverse(v) == _reference_profile_inverse(v), v


@pytest.mark.parametrize("lens", [None, (2, 1), (3, 2)], ids=str)
def test_verify_csv_bytes_equal_flow_stepping_reference(lens, tmp_path, monkeypatch):
    # S^3 takes the kernel's branch without the deck product
    cfg = json.dumps({"family": "ellipsoid", "a": 1.0, "b": SQRT2,
                      **({"lens": {"p": lens[0], "q": lens[1]}} if lens else {})})

    def run(tag):
        out, csv = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        # an action bound below the shortest period gives an empty catalog
        assert main(["verify", "--config", cfg, "--action-bound", "0.2", "--samples", "200",
                     "--seed", "11", "--out", str(out), "--csv", str(csv)]) == 0
        return out.read_bytes(), csv.read_bytes()

    fast = run("fast")
    turned = {"forward": 0, "backward": 0}
    with monkeypatch.context() as m:
        _use_reference(m, turned)
        slow = run("slow")
    assert fast == slow
    assert len(fast[1].decode().splitlines()) == 201
    # the scan ran from the fixed point and from every sampled start, both ways
    assert turned == {"forward": 201, "backward": 200}


# ---------------------------------------------------------------------------
# the Brent port against scipy's brentq


def _brent_run(solver, f, a, b, xtol):
    """Root bits (or error type and message) and the evaluation points of one solve."""
    xs = []

    def counted(x):
        xs.append(x)
        return f(x)

    try:
        out = solver(counted, a, b, xtol=xtol).hex()
    except (ValueError, RuntimeError) as exc:
        out = (type(exc), str(exc))
    return out, [x.hex() for x in xs]


def test_brentq_port_equals_scipy_on_random_brackets():
    """The port is exact while scipy's C build does no FMA contraction.

    Same root bits and the same evaluation points, in order, on functions
    of varied scale, including values so small that the product of two of
    them underflows, and step functions.
    """
    rng = np.random.default_rng(5)
    families = [
        lambda c, s: (lambda x: math.sin(s * (x - c))),
        lambda c, s: (lambda x: s * (x - c) ** 3 - 1e-3),
        lambda c, s: (lambda x: math.atan(s * (x - c))),
        lambda c, s: (lambda x: math.expm1(x - c)),
        lambda c, s: (lambda x: math.tanh(x - c) ** 3),
        lambda c, s: (lambda x: (x - c) * 1e-300),
        lambda c, s: (lambda x: (x - c) * s * 1e290),
        # plateaus: equal values at distinct points divide by zero in the step
        lambda c, s: (lambda x: math.floor(s * (x - c)) + 0.5),
    ]
    converged = 0
    for _ in range(300):
        c, s = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-3.0, 3.0)
        f = families[rng.integers(len(families))](c, s)
        a, b = rng.uniform(-5.0, 5.0, 2)
        for xtol in (1e-14, 2e-12, 1e-10, 1e-6):
            port = _brent_run(section.brentq, f, a, b, xtol)
            assert port == _brent_run(brentq, f, a, b, xtol), (a, b, xtol)
            converged += isinstance(port[0], str)
    assert converged > 300


def test_brentq_port_equals_scipy_inside_return_maps(monkeypatch):
    """Every bracket of the profile inverse and of the crossing refinement."""
    calls = []
    port_brentq = section.brentq

    def both(f, a, b, xtol=2e-12):
        port = _brent_run(port_brentq, f, a, b, xtol)
        assert port == _brent_run(brentq, f, a, b, xtol)
        calls.append(len(port[1]))
        return float.fromhex(port[0])

    monkeypatch.setattr(section, "brentq", both)
    flowed = []
    for lens in (None, (2, 1), (3, 2)):
        page = rk.build_page(rk.ContactSystem(
            "ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(*lens) if lens else None))
        for start in zip(*sample_starts(np.random.default_rng(3), 20)):
            for sgn, direction in ((1, "forward"), (-1, "backward")):
                t_star = rk.return_map(page, start, direction).return_time
                flowed.append((page, rk.flow(page.system, rk.page_point(page, *start), sgn * t_star)))
    # the closed-form return solves nothing
    assert calls == []
    # reading the flowed points back inverts the disk profile once each
    for page, pt in flowed:
        rk.page_coords(page, pt)
    assert len(calls) == 3 * 20 * 2 and min(calls) >= 3
    # the numeric flow's crossing scan refines the crossing time as well
    calls.clear()
    page = rk.build_page(rk.ContactSystem("ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(12, 5)))
    for start in zip(*sample_starts(np.random.default_rng(4), 2)):
        for direction in ("forward", "backward"):
            for tol in (1e-14, 2e-12, 1e-10):
                _numeric_return(page, start, direction, tol)
    assert len(calls) == 2 * 2 * 2 * 3 and min(calls) >= 3


@pytest.mark.parametrize(
    "f, a, b, xtol",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12),      # same-sign bracket
        (lambda x: math.nan if x > 0.2 else x - 0.5, 0.0, 1.0, 1e-12),  # NaN value
        (lambda x: x - 0.5, 0.0, 1.0, 0.0),             # xtol = 0
        (lambda x: x - 0.5, 0.0, 1.0, -1e-12),          # xtol < 0
        (lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300, 1e-12),  # bisection only: no convergence
    ],
    ids=["same-sign", "nan-value", "zero-xtol", "negative-xtol", "no-convergence"],
)
def test_brentq_port_raises_as_scipy(f, a, b, xtol):
    port = _brent_run(section.brentq, f, a, b, xtol)
    assert isinstance(port[0], tuple)
    assert port == _brent_run(brentq, f, a, b, xtol)
