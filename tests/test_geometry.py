import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import reebkit as rk
from reebkit.errors import PreconditionViolation
from reebkit.geometry import _dlambda_cols, _dlambda_rows, check_point, check_tangent
from reebkit.integrate import dopri45
from reebkit.knots import pdisk_arrays

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0, 0.0])


def random_sphere_points(rng, n):
    pts = rng.normal(size=(n, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def tangent_at(rng, pt):
    v = rng.normal(size=4)
    v -= (v @ pt) * pt
    return v


# ---------------------------------------------------------------------------
# the contact form


def test_lambda0_closed_form_values():
    assert rk.lambda0_eval(E1, [0, 1, 0, 0]) == pytest.approx(0.5, abs=1e-15)
    assert rk.lambda0_eval(E3, [1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-15)
    s = 1.0 / math.sqrt(2.0)
    assert rk.lambda0_eval([s, 0, s, 0], [0, s, 0, -s]) == pytest.approx(0.0, abs=1e-15)


def test_lambda0_rejects_non_tangent():
    with pytest.raises(PreconditionViolation):
        rk.lambda0_eval(E1, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(PreconditionViolation):
        rk.lambda0_eval([2.0, 0, 0, 0], [0, 1, 0, 0])


_NON_FINITE_CALLS = {
    "check_point": lambda sys_, x: check_point([x, 0.0, 0.0, 0.0]),
    "check_tangent": lambda sys_, x: check_tangent(E1, [0.0, x, 0.0, 0.0]),
    "closed_orbit": lambda sys_, x: rk.ClosedOrbit(sys_, [x, 0.0, 0.0, 0.0], 1.0),
    "flow_time": lambda sys_, x: rk.flow(sys_, E1, x),
    "lambda_eval": lambda sys_, x: rk.lambda_eval(sys_, [x, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),
    "page_coords": lambda sys_, x: rk.page_coords(sys_, [0.0, 0.0, x, 0.0]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
def test_non_finite_geometry_input_is_refused(call, value, ell_l21):
    # a NaN fails every comparison, so each check must be written to fail on it
    with np.errstate(invalid="ignore"), pytest.raises(PreconditionViolation):
        _NON_FINITE_CALLS[call](ell_l21, value)


def test_lens_params_validation():
    rk.LensParams(5, 2)
    with pytest.raises(PreconditionViolation):
        rk.LensParams(4, 2)
    with pytest.raises(PreconditionViolation):
        rk.LensParams(3, 5)


# ---------------------------------------------------------------------------
# the Reeb field


def test_reeb_round_closed_form():
    sys_ = rk.ContactSystem("round")
    assert np.allclose(rk.reeb_vector(sys_, E1), [0, 2, 0, 0])


def test_reeb_solve_matches_closed_form():
    rng = np.random.default_rng(0)
    for sys_ in (
        rk.ContactSystem("round"),
        rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0)),
        rk.ContactSystem("ellipsoid", a=0.7, b=1.9),
    ):
        for pt in random_sphere_points(rng, 12):
            closed = rk.reeb_vector(sys_, pt)
            solved = rk.geometry._solved_reeb_vector(sys_, pt)
            assert np.linalg.norm(closed - solved) < 1e-9


def test_reeb_defining_equations_at_random_points():
    rng = np.random.default_rng(1)
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0))
    for pt in random_sphere_points(rng, 100):
        R = rk.reeb_vector(sys_, pt)
        assert abs(rk.lambda_eval(sys_, pt, R) - 1.0) < 1e-10
        for _ in range(3):
            v = tangent_at(rng, pt)
            assert abs(rk.dlambda_eval(sys_, pt, R, v)) < 1e-8


def _dlambda_rows_by_row_sums(sys_, pts, us, vs):
    """dlambda on rows as the kernel formed it with (n, 4) gradients and row sums."""
    def lam0(p, v):
        return 0.5 * (p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0] + p[:, 2] * v[:, 3] - p[:, 3] * v[:, 2])

    H = (math.pi / sys_.a) * (pts[:, 0] ** 2 + pts[:, 1] ** 2) + (math.pi / sys_.b) * (
        pts[:, 2] ** 2 + pts[:, 3] ** 2
    )
    grad = np.empty_like(pts)
    grad[:, 0] = 2 * math.pi / sys_.a * pts[:, 0]
    grad[:, 1] = 2 * math.pi / sys_.a * pts[:, 1]
    grad[:, 2] = 2 * math.pi / sys_.b * pts[:, 2]
    grad[:, 3] = 2 * math.pi / sys_.b * pts[:, 3]
    dfu = -np.sum(grad * us, axis=1) / H**2
    dfv = -np.sum(grad * vs, axis=1) / H**2
    omega0 = us[:, 0] * vs[:, 1] - us[:, 1] * vs[:, 0] + us[:, 2] * vs[:, 3] - us[:, 3] * vs[:, 2]
    return dfu * lam0(pts, vs) - dfv * lam0(pts, us) + omega0 / H


def test_dlambda_rows_by_columns_equal_row_sums_bit_for_bit():
    rng = np.random.default_rng(7)
    systems = [rk.ContactSystem("round"), rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0)),
               rk.ContactSystem("ellipsoid", a=0.7, b=17.3, lens=rk.LensParams(3, 2))]
    # the page grid of verify, and random rows of the sizes the kernel serves
    rs = np.linspace(1e-3, 1.0 - 1e-3, 101)
    ths = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    grid = tuple(a.reshape(-1, 4) for a in pdisk_arrays(rs[:, None], ths[None, :]))
    cases = [grid] + [tuple(rng.normal(size=(3, n, 4))) for n in (1, 513, 4096, 10100)]
    for sys_ in systems:
        for pts, us, vs in cases:
            got = _dlambda_rows(sys_, pts, us, vs)
            assert got.tobytes() == _dlambda_rows_by_row_sums(sys_, pts, us, vs).tobytes()


def _reference_dlambda_rows(sys_, pts, us, vs):
    """dlambda on rows as the kernel formed it before it took broadcast columns."""
    x, u, v = tuple(pts.T), tuple(us.T), tuple(vs.T)
    H = (math.pi / sys_.a) * (x[0] ** 2 + x[1] ** 2) + (math.pi / sys_.b) * (x[2] ** 2 + x[3] ** 2)
    H2 = H**2
    ka, kb = 2 * math.pi / sys_.a, 2 * math.pi / sys_.b
    g0, g1, g2, g3 = ka * x[0], ka * x[1], kb * x[2], kb * x[3]
    dfu = -(g0 * u[0] + g1 * u[1] + g2 * u[2] + g3 * u[3]) / H2
    dfv = -(g0 * v[0] + g1 * v[1] + g2 * v[2] + g3 * v[3]) / H2
    omega0 = u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]

    def lam0(a):
        return 0.5 * (x[0] * a[1] - x[1] * a[0] + x[2] * a[3] - x[3] * a[2])

    return dfu * lam0(v) - dfv * lam0(u) + omega0 / H


def test_dlambda_columns_broadcast_to_the_row_values():
    # columns of length 1 along an axis give the values of the full rows, bit for bit
    rng = np.random.default_rng(11)
    sys_ = rk.ContactSystem("ellipsoid", a=0.7, b=17.3, lens=rk.LensParams(3, 2))
    full = rng.normal(size=(3, 40, 30, 4))
    full[..., 2:] = full[:, :, :1, 2:]  # the w-columns vary along the first axis only
    full[2, ..., 2:] = 0.0
    cols = [[full[k, ..., c] for c in range(4)] for k in range(3)]
    for k in range(3):
        cols[k][2:] = [a[:, :1] for a in cols[k][2:]]
    cols[2][2:] = [np.zeros((1, 1))] * 2
    got = _dlambda_cols(sys_, *cols)
    assert got.shape == (40, 30)
    rows = [a.reshape(-1, 4) for a in full]
    assert got.tobytes() == _reference_dlambda_rows(sys_, *rows).tobytes()
    assert _dlambda_rows(sys_, *rows).tobytes() == got.tobytes()


def test_reeb_unit_ellipsoid_is_round_up_to_rate():
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=1.0)
    rng = np.random.default_rng(2)
    for pt in random_sphere_points(rng, 5):
        r_ell = rk.reeb_vector(sys_, pt)
        r_round = rk.reeb_vector(rk.ContactSystem("round"), pt)
        assert np.allclose(r_ell, math.pi * r_round)


def test_reeb_w_circle_rate_is_half_for_b_two():
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=2.0)
    R = rk.reeb_vector(sys_, E3)
    # w-plane rotation at rate pi, half the z-plane rate 2 pi
    assert np.allclose(R, [0, 0, 0, math.pi])
    Rz = rk.reeb_vector(sys_, E1)
    assert np.allclose(Rz, [0, 2 * math.pi, 0, 0])


# ---------------------------------------------------------------------------
# flows


def test_flow_round_period_pi():
    sys_ = rk.ContactSystem("round")
    assert np.linalg.norm(rk.flow(sys_, E1, math.pi) - E1) < 1e-12


def test_flow_time_zero_is_identity():
    for sys_ in (rk.ContactSystem("round"), rk.ContactSystem("ellipsoid", a=1.3, b=0.8)):
        assert np.array_equal(rk.flow(sys_, E1, 0.0), E1)


def test_flow_short_orbit_period_is_a():
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0))
    assert np.linalg.norm(rk.flow(sys_, E1, 1.0) - E1) < 1e-12


def test_flow_refuses_a_turn_that_overflows(ell_l21):
    # the time may be finite while w t is not; math.cos takes no infinite angle
    for t in (1e308, -1e308, math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionViolation, match="non-finite angle"):
            rk.flow(ell_l21, E1, t)
    sys_ = rk.ContactSystem("ellipsoid", a=1e-160, b=1e160)
    with pytest.raises(PreconditionViolation, match="non-finite angle"):
        rk.flow(sys_, E3, 1e160)


def test_flow_numeric_matches_closed_form():
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0))
    rng = np.random.default_rng(3)
    tol = rk.geometry._NUMERIC_FLOW_TOL
    for pt in random_sphere_points(rng, 3):
        for t in (0.7, 5.3, 20.0):
            closed = rk.flow(sys_, pt, t)
            numeric = rk.geometry._numeric_flow(sys_, pt, t)
            assert np.linalg.norm(closed - numeric) < tol * 100 * max(1.0, t)


def test_flow_numeric_integrates_reeb_vector_bitwise():
    """The numeric flow's field is ``reeb_vector`` at the projected point, bit for bit."""
    rng = np.random.default_rng(4)
    pts = random_sphere_points(rng, 20)
    pts[0] = [0.0, -0.0, 1.0, 0.0]
    for v in pts:
        ref = np.stack([-v[..., 1], v[..., 0], -v[..., 3], v[..., 2]], axis=-1)
        assert rk.geometry.ambient_rotation(v).tobytes() == ref.tobytes()
    for lens in (None, rk.LensParams(3, 2)):
        sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=1.9, lens=lens)
        w1, w2 = sys_.plane_rates()
        for pt in pts[:4]:
            ref = dopri45(
                lambda _t, y: rk.reeb_vector(sys_, y / np.linalg.norm(y)), 0.0, pt, 2.3,
                rtol=1e-10, atol=1e-10, project=lambda y: y / np.linalg.norm(y),
                max_step=0.5 / max(w1, w2),
            ).y_end
            assert rk.geometry._numeric_flow(sys_, pt, 2.3).tobytes() == ref.tobytes()


def test_flow_preserves_lambda_along_transported_vectors():
    # transport a tangent vector with the variational equations; the value of
    # the contact form on it must be constant
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0))
    w1, w2 = sys_.plane_rates()
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0], A[2, 3], A[3, 2] = -w1, w1, -w2, w2
    rng = np.random.default_rng(4)
    pt = random_sphere_points(rng, 1)[0]
    v = tangent_at(rng, pt)
    lam0 = rk.lambda_eval(sys_, pt, v)

    def rhs(_t, y):
        return np.concatenate([rk.reeb_vector(sys_, y[:4] / np.linalg.norm(y[:4])), A @ y[4:]])

    # one grid interval at a time, each from the end of the last
    y = np.concatenate([pt, v])
    ts = np.linspace(0.0, 10.0, 41)
    for t0, t1 in zip(ts[:-1], ts[1:]):
        y = dopri45(rhs, t0, y, t1, rtol=1e-10, atol=1e-10, max_step=0.2).y_end
        p = y[:4] / np.linalg.norm(y[:4])
        vv = y[4:] - (y[4:] @ p) * p
        assert abs(rk.lambda_eval(sys_, p, vv) - lam0) < 1e-9


def test_integrator_against_scipy_oracle():
    # a nonlinear test problem exercises the stepper independently of flows
    def rhs(t, y):
        return np.array([y[1], -math.sin(y[0]) - 0.1 * y[1] + 0.3 * math.cos(t)])

    y0 = np.array([0.4, -0.2])
    mine = dopri45(rhs, 0.0, y0, 15.0, rtol=1e-11, atol=1e-11)
    ref = solve_ivp(rhs, (0.0, 15.0), y0, method="DOP853", rtol=1e-12, atol=1e-12)
    assert np.linalg.norm(mine.y_end - ref.y[:, -1]) < 1e-8


def test_integrator_backward_time():
    def rhs(_t, y):
        return np.array([y[0]])

    res = dopri45(rhs, 0.0, [1.0], -1.0, rtol=1e-12, atol=1e-12)
    assert res.y_end[0] == pytest.approx(math.exp(-1.0), rel=1e-10)


# ---------------------------------------------------------------------------
# the deck action


def test_deck_action_examples():
    L = rk.LensParams(2, 1)
    pt = np.array([0.6, 0.0, 0.8, 0.0])
    assert np.allclose(rk.deck_action(L, 1, pt), -pt)
    assert np.allclose(rk.deck_action(L, 0, pt), pt)
    got = rk.deck_action(rk.LensParams(5, 2), 1, E1)
    assert np.allclose(got, [math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5), 0, 0])


def test_lens_equivalent():
    L2 = rk.LensParams(2, 1)
    pt = np.array([0.6, 0.0, 0.8, 0.0])
    assert rk.lens_equivalent(L2, pt, -pt)
    L3 = rk.LensParams(3, 1)
    assert rk.lens_equivalent(L3, pt, pt)
    L5 = rk.LensParams(5, 2)
    assert rk.lens_equivalent(L5, pt, rk.deck_action(L5, 3, pt))
    assert not rk.lens_equivalent(L5, pt, np.array([0.0, 0.6, 0.8, 0.0]))


def test_flow_commutes_with_deck_action():
    L = rk.LensParams(5, 2)
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0), lens=L)
    rng = np.random.default_rng(5)
    for pt in random_sphere_points(rng, 10):
        for t in (0.3, 1.7):
            a = rk.flow(sys_, rk.deck_action(L, 2, pt), t)
            b = rk.deck_action(L, 2, rk.flow(sys_, pt, t))
            assert np.linalg.norm(a - b) < 1e-8


# ---------------------------------------------------------------------------
# serialization


def test_system_json_round_trip():
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0), lens=rk.LensParams(2, 1))
    data = rk.system_to_json(sys_)
    assert data == {
        "family": "ellipsoid",
        "a": 1.0,
        "b": math.sqrt(2.0),
        "lens": {"p": 2, "q": 1},
    }
    back = rk.system_from_json(data)
    assert back == sys_
    assert rk.system_from_json({"family": "round"}) == rk.ContactSystem("round")
    assert rk.system_from_json(rk.system_to_json(rk.ContactSystem("round"))) == rk.ContactSystem(
        "round"
    )
