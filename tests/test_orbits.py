import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reebkit as rk
from reebkit.errors import DegenerateInput, GridTooCoarse, IllConditioned, PreconditionViolation
from reebkit.geometry import _dlambda_rows, _lambda_rows, _turn, _turn_grid, from_complex, to_complex
from reebkit.integrate import dopri45
from reebkit.orbits import _GRID_INTERVALS, _MAX_CATALOG, _closure_order, _frame_rows
from test_geometry import _reference_dlambda_rows
from test_golden import grid_systems
from test_index import _scanned_winding_interval

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# the catalog


def test_catalog_sphere_periods(ell_s3):
    cat = rk.catalog(ell_s3, 2.5)
    periods = sorted(o.period for o in cat)
    assert np.allclose(periods, [1.0, SQRT2, 2.0])


def test_catalog_quotient_periods(ell_l21):
    cat = rk.catalog(ell_l21, 1.5)
    periods = sorted(o.period for o in cat)
    assert np.allclose(periods, [0.5, SQRT2 / 2, 1.0, SQRT2, 1.5])


def test_catalog_empty_below_min_period(ell_s3):
    assert rk.catalog(ell_s3, 0.9) == []


def test_catalog_refuses_round():
    with pytest.raises(DegenerateInput):
        rk.catalog(rk.ContactSystem("round"), 5.0)
    with pytest.raises(DegenerateInput):
        rk.catalog(rk.ContactSystem("ellipsoid", a=1.0, b=1.0), 5.0)


def test_catalog_refuses_rational_period_collision():
    # a/b = 2/3 makes the third K iterate collide with the second K' iterate
    with pytest.raises(DegenerateInput):
        rk.catalog(rk.ContactSystem("ellipsoid", a=1.0, b=1.5), 4.0)


def test_catalog_closure_invariant(ell_l21):
    lens = ell_l21.lens
    for orbit in rk.catalog(ell_l21, 3.0):
        end = rk.flow(ell_l21, orbit.anchor, orbit.prime_period)
        target = rk.deck_action(lens, orbit.deck_power, orbit.anchor)
        assert np.linalg.norm(end - target) < 1e-8


def test_orbit_validation_rejects_wrong_period(ell_s3):
    with pytest.raises(PreconditionViolation):
        rk.ClosedOrbit(ell_s3, np.array([1.0, 0, 0, 0]), 0.9)


def test_iterates_do_not_rerun_the_closure_flow(monkeypatch):
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(3, 2))
    K, _ = rk.principal_orbits(sys_)
    want = rk.index_table(K, 4)
    flows = []
    real_flow = rk.orbits.flow
    monkeypatch.setattr(rk.orbits, "flow", lambda *a, **kw: flows.append(a) or real_flow(*a, **kw))
    K5 = K.iterate(5)
    assert (K5.multiplicity, K5.period, K5.label, K5.deck_power) == (5, 5 * K.period, "K", 1)
    assert K5.anchor.tobytes() == K.anchor.tobytes() and K.multiplicity == 1
    assert K5.iterate(2).multiplicity == 10
    assert rk.index_table(K, 4) == want
    assert flows == []
    with pytest.raises(PreconditionViolation, match="iterate exponent must be >= 1"):
        K.iterate(0)
    with pytest.raises(PreconditionViolation, match="multiplicity must be >= 1"):
        K._repeated(0)
    # a constructed orbit is still checked, once
    with pytest.raises(PreconditionViolation, match="orbit does not close"):
        rk.ClosedOrbit(sys_, K.anchor, 1.1 * K.prime_period, deck_power=K.deck_power)
    assert len(flows) == 1


def test_orbit_json(ell_s3):
    K, _ = rk.principal_orbits(ell_s3)
    rec = rk.orbit_to_json(K.iterate(2))
    assert rec["multiplicity"] == 2 and rec["period"] == pytest.approx(2.0)
    assert "indices" not in rec


# ---------------------------------------------------------------------------
# linearized flow


def test_linearized_round_hopf_is_rigid_rotation():
    sys_ = rk.ContactSystem("round")
    orbit = rk.ClosedOrbit(sys_, np.array([1.0, 0, 0, 0]), math.pi)
    path = rk.linearized_path(orbit)
    # the flow turns the w-plane at ambient rate 2 and the disk frame's section
    # W = (0, conj z) turns back at rate 2: two full turns over period pi
    assert np.abs(path.mats - rk.make_rotation_path(4 * math.pi).mats).max() < 1e-8
    # in the constant frame of the w-plane, one turn fewer
    constant = rk.prepend_loop(path, -1)
    assert np.abs(constant.mats - rk.make_rotation_path(2 * math.pi).mats).max() < 1e-8
    # the round form is degenerate along Hopf fibers
    assert rk.cz_geometric(path).degenerate and rk.cz_geometric(constant).degenerate


def test_linearized_time_zero_is_identity(ell_s3):
    K, _ = rk.principal_orbits(ell_s3)
    path = rk.linearized_path(K)
    assert np.array_equal(path.mats[0], np.eye(2))


def test_linearized_short_orbit_disk_frame_rotation(ell_s3):
    K, _ = rk.principal_orbits(ell_s3)
    path = rk.linearized_path(K)
    ang = 2 * math.pi * (1 + 1 / SQRT2)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    assert np.abs(path.monodromy - rot).max() < 1e-9


def _integrated_path(orbit, pts, e1, e2):
    """The linearized flow by dopri45 on the 12-dimensional variational system.

    This is the former route: the point and both frame vectors are
    integrated together under the ambient Jacobian of the Reeb field, then
    projected to the contact plane and re-expanded in the frame (pts, e1, e2).
    """
    sys_ = orbit.system
    w1, w2 = sys_.plane_rates()
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0], A[2, 3], A[3, 2] = -w1, w1, -w2, w2

    def rhs(_t, y):
        out = np.empty(12)
        out[:4] = rk.reeb_vector(sys_, y[:4] / np.linalg.norm(y[:4]))
        out[4:8] = A @ y[4:8]
        out[8:12] = A @ y[8:12]
        return out

    def project(y):
        y = y.copy()
        y[:4] /= np.linalg.norm(y[:4])
        for sl in (slice(4, 8), slice(8, 12)):
            y[sl] -= (y[sl] @ y[:4]) * y[:4]
        return y

    n = pts.shape[0] - 1
    ys = np.empty((n + 1, 12))
    ys[0] = np.concatenate([orbit.anchor, e1[0], e2[0]])
    ts = np.linspace(0.0, orbit.period, n + 1)
    for i in range(n):
        # one grid interval at a time, each from the end of the last
        ys[i + 1] = dopri45(
            rhs, ts[i], ys[i], ts[i + 1], rtol=1e-11, atol=1e-11, project=project,
            max_step=0.5 / max(w1, w2),
        ).y_end
    R = np.array([rk.reeb_vector(sys_, pt) for pt in pts])
    mats = np.empty((n + 1, 2, 2))
    for col, sl in enumerate((slice(4, 8), slice(8, 12))):
        v = ys[:, sl]
        u = v - _lambda_rows(sys_, pts, v)[:, None] * R
        mats[:, 0, col] = _dlambda_rows(sys_, pts, u, e2)
        mats[:, 1, col] = _dlambda_rows(sys_, pts, e1, u)
    mats /= np.sqrt(np.linalg.det(mats))[:, None, None]
    mats[0] = np.eye(2)
    return mats


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize(
    "b,lens", [(SQRT2, None), (SQRT2, (2, 1)), (17 + math.pi / 7, (12, 5))],
    ids=["S3", "L21", "L125"],
)
def test_linearized_path_equals_integrated_variational_flow(b, lens, offset):
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=rk.LensParams(*lens) if lens else None)
    for orbit in rk.principal_orbits(sys_):
        base = replace(orbit, multiplicity=_closure_order(orbit))
        # the disk frame's sections turned by `offset` full turns over the period,
        # in which the path is the disk-frame path turned back by `offset` turns
        pts, e1, e2 = rk.disk_frame(base)
        ts = np.linspace(0.0, 1.0, pts.shape[0])[:, None]
        c, s = np.cos(2.0 * math.pi * offset * ts), np.sin(2.0 * math.pi * offset * ts)
        integrated = _integrated_path(base, pts, c * e1 + s * e2, -s * e1 + c * e2)
        path = rk.prepend_loop(rk.linearized_path(base), -offset)
        assert np.abs(path.mats - integrated).max() < 1e-9


@pytest.mark.parametrize("lens", [None, (2, 1), (12, 5)], ids=["S3", "L21", "L125"])
def test_disk_frame_points_equal_scalar_flow(lens):
    sys_ = rk.ContactSystem(
        "ellipsoid", a=1.0, b=17 + math.pi / 7, lens=rk.LensParams(*lens) if lens else None
    )
    for orbit in rk.principal_orbits(sys_):
        for m in (1, 3):
            it = orbit.iterate(m)
            n = 512
            pts = np.array([rk.flow(sys_, it.anchor, it.period * j / n) for j in range(n + 1)])
            assert np.array_equal(rk.disk_frame(it)[0], pts)


@pytest.mark.parametrize("lens", [None, (2, 1), (3, 2)], ids=["S3", "L21", "L32"])
def test_turn_grid_rows_equal_scalar_turn(lens):
    # rows turned on the shared cos/sin table equal the scalar turn bit for bit;
    # flow itself refuses the frame vectors, which are off the unit sphere
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(*lens) if lens else None)
    w1, w2 = sys_.plane_rates()
    n = _GRID_INTERVALS
    for orbit in rk.principal_orbits(sys_):
        pts, e1, e2 = rk.disk_frame(orbit)
        vs = np.stack([orbit.anchor, e1[0], e2[0]])
        grid = _turn_grid(sys_, vs, orbit.period, n)
        assert grid.shape == (3, n + 1, 4)
        for v, rows in zip(vs, grid):
            z, w = to_complex(v)
            turned = []
            for j in range(n + 1):
                t = orbit.period * j / n
                turned.append(from_complex(_turn(z, w1, t), _turn(w, w2, t)))
            assert np.array_equal(rows, np.array(turned))


def _reference_lift_mats(orbit):
    """The samples of ``linearized_path`` as it formed them before one table served two turns.

    The frame at the anchor and along the grid in two calls, one list-built
    cos/sin table turning the anchor and both frame vectors, and one dlambda
    call per matrix entry.
    """
    sys_, n = orbit.system, _GRID_INTERVALS
    anchor = orbit.anchor[None]
    vs = np.concatenate([anchor, *_frame_rows(sys_, anchor)])
    ts = orbit.period * np.arange(n + 1) / n
    turned = np.empty((len(vs), n + 1, 4))
    for col, rate in zip((0, 2), sys_.plane_rates()):
        angles = (rate * ts).tolist()
        c = np.array([math.cos(t) for t in angles])
        s = np.array([math.sin(t) for t in angles])
        x, y = vs[:, col, None], vs[:, col + 1, None]
        turned[:, :, col] = x * c - y * s
        turned[:, :, col + 1] = x * s + y * c
    pts, *us = turned
    e1, e2 = _frame_rows(sys_, pts)
    mats = np.empty((n + 1, 2, 2))
    for col, u in enumerate(us):
        mats[:, 0, col] = _reference_dlambda_rows(sys_, pts, u, e2)
        mats[:, 1, col] = _reference_dlambda_rows(sys_, pts, e1, u)
    mats /= np.sqrt(np.linalg.det(mats))[:, None, None]
    mats[0] = np.eye(2)
    return mats


@pytest.mark.parametrize("system", sorted(grid_systems()))
def test_lift_equals_the_lift_before_one_table_bit_for_bit(system):
    sys_ = rk.system_from_json(json.loads(grid_systems()[system]))
    for orbit in rk.principal_orbits(sys_):
        for m in sorted({_closure_order(orbit), 2}):
            it = orbit.iterate(m)
            assert rk.linearized_path(it).mats.tobytes() == _reference_lift_mats(it).tobytes(), m


def test_linearized_path_refuses_coarse_grid_up_front(monkeypatch):
    # (w1 + w2) T / n above pi/2: refused before a frame is built or a vector turned
    for name in ("disk_frame", "_frame_rows", "_turn_grid", "_turn_table"):
        monkeypatch.setattr(rk.orbits, name, None)
    _, Kp = rk.principal_orbits(rk.ContactSystem("ellipsoid", a=1.0, b=128.0))
    with pytest.raises(GridTooCoarse):
        rk.linearized_path(Kp)
    with pytest.raises(GridTooCoarse):
        rk.index_table(Kp, 1)


def test_disk_frame_pairing_normalized(ell_s3):
    K, Kp = rk.principal_orbits(ell_s3)
    for orbit in (K, Kp):
        pair = _dlambda_rows(ell_s3, *rk.disk_frame(orbit))
        assert np.abs(pair - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# asymptotic loops


def test_asymptotic_loop_rigid_rotation_constant(ell_s3):
    K, _ = rk.principal_orbits(ell_s3)
    loop = rk.asymptotic_loop(rk.linearized_path(K))
    c = 2 * math.pi * (1 + 1 / SQRT2)
    assert np.abs(loop.mats - c * np.eye(2)).max() < 1e-6


def test_asymptotic_loop_identity_path_is_zero():
    mats = np.repeat(np.eye(2)[None], 129, axis=0)
    path = rk.SymplecticPath(mats)
    loop = rk.asymptotic_loop(path)
    assert np.abs(loop.mats).max() < 1e-12


def test_asymptotic_loop_differentiates_rotation():
    path = rk.make_rotation_path(1.7)
    loop = rk.asymptotic_loop(path)
    assert np.abs(loop.mats - 1.7 * np.eye(2)).max() < 1e-8


# ---------------------------------------------------------------------------
# orbit indices


def test_orbit_index_short_orbit(ell_s3):
    K, _ = rk.principal_orbits(ell_s3)
    res = rk.orbit_index(K, 1)
    assert res.mu == 3 and not res.degenerate
    assert res.rho == pytest.approx(1 + 1 / SQRT2, abs=1e-9)
    res2 = rk.orbit_index(K, 2)
    assert res2.mu == 7
    assert res2.rho == pytest.approx(2 * (1 + 1 / SQRT2), abs=1e-9)


def test_orbit_index_long_orbit(ell_s3):
    _, Kp = rk.principal_orbits(ell_s3)
    res = rk.orbit_index(Kp, 1)
    assert res.mu == 5
    assert res.rho == pytest.approx(1 + SQRT2, abs=1e-6)


def test_quotient_iterate_p_matches_lifted_sphere_index(ell_s3, ell_l21):
    K_q, _ = rk.principal_orbits(ell_l21)
    K_s, _ = rk.principal_orbits(ell_s3)
    lifted = rk.orbit_index(K_s, 1)
    quotient = rk.orbit_index(K_q, 2)
    assert quotient.mu == lifted.mu == 3
    assert quotient.rho == pytest.approx(lifted.rho, abs=1e-9)
    assert quotient.convention == "disk"


def test_quotient_fractional_iterate(ell_l21):
    K, _ = rk.principal_orbits(ell_l21)
    res = rk.orbit_index(K, 1)
    assert res.convention == "fractional-disk"
    assert res.rho == pytest.approx((1 + 1 / SQRT2) / 2, abs=1e-9)
    assert res.mu == 1  # (1 + 1/sqrt2)/2 lies in (0, 1)


def test_frame_change_shifts_index_by_two(ell_s3, ell_l21):
    # a frame turned by m full turns against the disk frame sees the lift
    # multiplied by the loop of Maslov index -m: mu drops by 2m and rho by m
    for sys_ in (ell_s3, ell_l21):
        for orbit in rk.principal_orbits(sys_):
            m_close = _closure_order(orbit)
            lift = rk.linearized_path(replace(orbit, multiplicity=m_close))
            base = rk.orbit_index(orbit, m_close)
            assert base.convention == "disk" and not base.degenerate
            for m in (1, -1, 2):
                turned = rk.prepend_loop(lift, -m)
                assert rk.cz_geometric(turned) == (base.mu - 2 * m, False)
                assert rk.rotation_number(turned) == pytest.approx(base.rho - m, abs=1e-9)


def test_frame_change_rule_on_quotient(ell_l21):
    # on L(2,1) the second iterate of K closes; one full turn of the frame
    # lowers mu by two and rho by one
    K, _ = rk.principal_orbits(ell_l21)
    base = rk.orbit_index(K, 2)
    shifted = rk.prepend_loop(rk.linearized_path(replace(K, multiplicity=2)), -1)
    assert rk.cz_geometric(shifted) == (base.mu - 2, False)
    assert rk.rotation_number(shifted) == pytest.approx(base.rho - 1, abs=1e-9)


def test_boundary_frame_relation(ell_s3):
    # the class induced by the disk-tangent section winds +1 against the disk
    # class, so rotation numbers differ by exactly one
    K, _ = rk.principal_orbits(ell_s3)
    rho_disk = rk.orbit_index(K, 1).rho
    boundary = rk.prepend_loop(rk.linearized_path(replace(K, multiplicity=1)), -1)
    assert rk.rotation_number(boundary) + 1 == pytest.approx(rho_disk, abs=1e-9)


def test_spectral_geometric_agree_on_catalog(ell_s3):
    for orbit in rk.catalog(ell_s3, 4.0):
        base = rk.ClosedOrbit(
            orbit.system, orbit.anchor, orbit.prime_period, 1, orbit.deck_power, orbit.label
        ).iterate(orbit.multiplicity)
        path = rk.linearized_path(base)
        loop = rk.asymptotic_loop(path)
        g = rk.cz_geometric(path)
        s = rk.cz_spectral(loop)
        assert g.index == s.index
        assert not g.degenerate


def test_rho_additivity_over_iterates(ell_s3):
    for orbit in rk.principal_orbits(ell_s3):
        rho1 = rk.orbit_index(orbit, 1).rho
        for k in (2, 3, 4):
            assert rk.orbit_index(orbit, k).rho == pytest.approx(k * rho1, abs=1e-6)


def test_index_table_rows(ell_s3):
    K, _ = rk.principal_orbits(ell_s3)
    rows = rk.index_table(K, 3)
    assert [r["mu_cz"] for r in rows] == [3, 7, 11]
    assert rows[0]["rho"] == pytest.approx(1 + 1 / SQRT2, abs=1e-9)


# ---------------------------------------------------------------------------
# the shared lift


@pytest.mark.parametrize("lens", [None, (2, 1), (3, 2), (5, 2)], ids=["S3", "L21", "L32", "L52"])
def test_index_table_equals_per_k_orbit_index(lens):
    # k up to 2p + 1 reaches the fractional-disk rows, the disk rows and lift
    # iterates above 1
    sys_ = rk.ContactSystem(
        "ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(*lens) if lens else None
    )
    k_max = 2 * sys_.p + 1
    for orbit in rk.principal_orbits(sys_):
        rows = rk.index_table(orbit, k_max)
        for row in rows:
            res = rk.orbit_index(orbit, row["k"])
            assert (row["mu_cz"], row["rho"], row["degenerate"], row["convention"]) == tuple(res)
        conventions = {row["convention"] for row in rows}
        assert conventions == ({"disk", "fractional-disk"} if sys_.p > 1 else {"disk"})


def test_index_table_linearizes_once(ell_s3, linearize_calls):
    K, _ = rk.principal_orbits(ell_s3)
    assert len(rk.index_table(K, 6)) == 6
    assert linearize_calls == ["K"]


# ---------------------------------------------------------------------------
# the iteration formula against the geometric route


def _geometric_rows(orbit, k_max):
    """(mu, rho, degenerate, convention) for k <= k_max from each lift iterate's winding interval.

    This is the reader's former route, with the interval scanned as the
    library once did (``test_index._scanned_winding_interval``).  The lift
    is a rotation path, so its twist is the same in every direction, and 8
    sampled directions with the golden-section refinement find the winding
    interval that 720 find.
    """
    m_close = _closure_order(orbit)
    base = replace(orbit, multiplicity=m_close)
    lift = rk.linearized_path(base)
    rho_lift = rk.rotation_number(lift)
    rows = []
    for k in range(1, k_max + 1):
        if k % m_close == 0:
            j = k // m_close
            path = lift.iterate(j) if j > 1 else lift
            interval = _scanned_winding_interval(path, n_dirs=8)
            rows.append((rk.mu_tilde(interval), rho_lift * j, not path.nondegenerate(), "disk"))
        else:
            rho = k * (rho_lift / m_close)
            degenerate = abs(rho - round(rho)) < 1e-9
            rows.append((rk.mu_tilde((rho, rho)), rho, degenerate, "fractional-disk"))
    return rows


@pytest.mark.parametrize(
    "a,b,lens",
    [
        (1.0, SQRT2, None), (1.0, SQRT2, (2, 1)), (1.0, SQRT2, (3, 2)), (1.0, SQRT2, (5, 2)),
        # resonant: some iterates of K or K' are degenerate
        (1.0, 2.0, None), (1.0, 1.5, None), (3.0, 1.0, (2, 1)), (1.0, 3.0, (2, 1)),
        (1.0, 1.5, (3, 2)),
        # K' turns 18.45 and 101 times over its lift
        (1.0, 17.0 + math.pi / 7, (12, 5)), (1.0, 100.0, None),
    ],
    ids=["S3", "L21", "L32", "L52", "S3-b2", "S3-b1.5", "L21-a3", "L21-b3", "L32-b1.5",
         "L125-b17", "S3-b100"],
)
def test_index_table_equals_geometric_route(a, b, lens):
    sys_ = rk.ContactSystem("ellipsoid", a=a, b=b, lens=rk.LensParams(*lens) if lens else None)
    for orbit in rk.principal_orbits(sys_):
        rows = rk.index_table(orbit, 12)
        got = [(r["mu_cz"], r["rho"], r["degenerate"], r["convention"]) for r in rows]
        assert got == _geometric_rows(orbit, 12)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), p=st.integers(1, 5), q_pick=st.integers(0, 3))
def test_index_table_equals_closed_form(a, b, p, q_pick):
    # K^k rotates k (1 + a/b) / p times and K'^k rotates k (1 + b/a) / p times;
    # away from resonance the index is mu_tilde({x}) = 2 floor(x) + 1; near
    # resonance rho, read off the monodromy's trace, loses digits
    qs = [q for q in range(1, p + 1) if math.gcd(p, q) == 1]
    k_max = 2 * p + 1
    assume(abs(a - b) > 1e-3)
    for ratio in (a / b, b / a):
        xs = [k * (1 + ratio) / p for k in range(1, k_max + 1)]
        assume(all(abs(x - round(x)) > 1e-3 for x in xs))
    lens = rk.LensParams(p, qs[q_pick % len(qs)]) if p > 1 else None
    K, Kp = rk.principal_orbits(rk.ContactSystem("ellipsoid", a=a, b=b, lens=lens))
    for orbit, ratio in ((K, a / b), (Kp, b / a)):
        for row in rk.index_table(orbit, k_max):
            x = row["k"] * (1 + ratio) / p
            assert row["mu_cz"] == 2 * math.floor(x) + 1
            assert row["rho"] == pytest.approx(x, abs=1e-6)
            assert not row["degenerate"]


@settings(max_examples=30, deadline=5000, derandomize=True)
@given(a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), p=st.integers(1, 5), q_pick=st.integers(0, 3),
       k=st.integers(1, 6))
def test_spectral_index_of_iterates_equals_closed_form(a, b, p, q_pick, k):
    # the spectral route on the asymptotic loop of K^k, which rotates
    # x = k (1 + a/b) / p times, against mu_tilde({x}); at resonance the loop
    # may be flagged degenerate, and a = b raises DegenerateInput.  These loops
    # have double eigenvalues, so each takes the whole 256-mode operator
    qs = [q for q in range(1, p + 1) if math.gcd(p, q) == 1]
    lens = rk.LensParams(p, qs[q_pick % len(qs)]) if p > 1 else None
    try:
        K, _ = rk.principal_orbits(rk.ContactSystem("ellipsoid", a=a, b=b, lens=lens))
    except DegenerateInput:
        assert a == b
        return
    x = k * (1 + a / b) / p
    res = rk.cz_spectral(rk.asymptotic_loop(rk.linearized_path(K.iterate(k))))
    if abs(x - round(x)) > 1e-6:
        assert res == (rk.mu_tilde((x, x)), False)
    else:
        assert res.degenerate or res.index == rk.mu_tilde((x, x))


def test_index_reader_refuses_iterates_above_bound(ell_s3):
    K, _ = rk.principal_orbits(ell_s3)
    x = _MAX_CATALOG * (1.0 + 1.0 / SQRT2)
    assert rk.orbit_index(K, _MAX_CATALOG).mu == 2 * math.floor(x) + 1
    with pytest.raises(PreconditionViolation):
        rk.orbit_index(K, _MAX_CATALOG + 1)


def test_large_iterates_refused_before_linearizing(ell_l21, linearize_calls):
    K, Kp = rk.principal_orbits(ell_l21)
    with pytest.raises(PreconditionViolation, match="iterate 10001 of K is"):
        rk.index_table(K, _MAX_CATALOG + 1)
    with pytest.raises(PreconditionViolation, match="iterate 10001 of K' is"):
        rk.orbit_index(Kp, _MAX_CATALOG + 1)
    # the bound is on the prime orbit's iterate: the 5001st iterate of K^2 is K^10002
    with pytest.raises(PreconditionViolation, match="iterate 5001 of K is above 5000"):
        rk.orbit_index(K.iterate(2), 5001)
    assert linearize_calls == []


def test_index_reader_refuses_non_rotation_monodromy(ell_s3, monkeypatch):
    # the iteration formula is exact for rotations only
    monkeypatch.setattr(rk.orbits, "linearized_path", lambda *a, **kw: rk.make_hyperbolic_path(1.0))
    K, _ = rk.principal_orbits(ell_s3)
    with pytest.raises(IllConditioned):
        rk.index_table(K, 2)


def test_index_reader_refuses_lift_that_is_not_a_rotation_path(ell_s3, monkeypatch):
    # the monodromy is the rotation by theta, but the interior samples are sheared
    theta = 2.0 * math.pi * 0.3
    ts = np.linspace(0.0, 1.0, 513)
    rot = np.array([[np.cos(theta * ts), -np.sin(theta * ts)],
                    [np.sin(theta * ts), np.cos(theta * ts)]]).transpose(2, 0, 1)
    shear = np.tile(np.eye(2), (ts.size, 1, 1))
    shear[:, 0, 1] = 0.5 * np.sin(math.pi * ts)
    mats = rot @ shear
    mats[0] = np.eye(2)
    path = rk.SymplecticPath(mats)
    assert np.max(np.abs(path.monodromy.T @ path.monodromy - np.eye(2))) < 1e-15
    monkeypatch.setattr(rk.orbits, "linearized_path", lambda *a, **kw: path)
    K, _ = rk.principal_orbits(ell_s3)
    with pytest.raises(IllConditioned, match="not a rotation path"):
        rk.index_table(K, 2)


def test_orbit_indices_read_no_winding_interval(ell_l21, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the general rotation-number route ran")

    monkeypatch.setattr(rk.index, "winding_interval", refuse)
    monkeypatch.setattr(rk.index, "rotation_number_with_error", refuse)
    for orbit in rk.principal_orbits(ell_l21):
        assert len(rk.index_table(orbit, 5)) == 5
    report, samples = rk.verify_gss_conditions(ell_l21, C=5.0, n_samples=2)
    assert len(samples) == 2


@pytest.mark.parametrize("eps", [1e-8, 1e-7])
def test_lift_rho_keeps_the_turns_near_an_integer(eps):
    # K' turns 3 + eps times; the trace is within 1e-12 of 2, so the monodromy's
    # class mod 1 reads 0 and the rotation number must come from the turns
    _, Kp = rk.principal_orbits(rk.ContactSystem("ellipsoid", a=1.0, b=2.0 + eps))
    lift = rk.linearized_path(Kp)
    rows = rk.index_table(Kp, 2)
    for row in rows:
        assert row["rho"] == pytest.approx(row["k"] * (3.0 + eps), abs=1e-12)
        assert row["rho"] == pytest.approx(row["k"] * rk.rotation_number(lift), abs=1e-12)
        assert row["mu_cz"] == 2 * math.floor(row["k"] * (3.0 + eps)) + 1


def test_index_reader_refuses_turns_off_the_class(ell_s3, monkeypatch):
    original = rk.orbits.delta_phi
    monkeypatch.setattr(rk.orbits, "delta_phi", lambda path, zeta: original(path, zeta) + 0.3)
    K, _ = rk.principal_orbits(ell_s3)
    with pytest.raises(IllConditioned, match="off its class"):
        rk.index_table(K, 2)


def test_index_table_near_resonance_matches_closed_form():
    # b = b0 +- 10^u puts the lift's monodromy 1e-12 to 1e-6 turns from +-I,
    # where tr/2 holds only half the digits of the turn; the exact class keeps
    # every row's rho at the closed form x = k (1 + ratio) / p
    rng = random.Random(20240915)
    for _ in range(300):
        p = rng.choice((1, 2, 3, 5, 7))
        q = rng.choice([q for q in range(1, p + 1) if math.gcd(p, q) == 1])
        b0 = rng.choice((1.5, 2.0, 3.0, 4.0, 5.0 / 3.0))
        b = b0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -6.0)
        lens = rk.LensParams(p, q) if p > 1 else None
        K, Kp = rk.principal_orbits(rk.ContactSystem("ellipsoid", a=1.0, b=b, lens=lens))
        for orbit, ratio in ((K, 1.0 / b), (Kp, b)):
            for row in rk.index_table(orbit, 4):
                x = row["k"] * (1.0 + ratio) / p
                assert abs(row["rho"] - x) <= 1e-13 * max(1.0, abs(x)), (p, q, b, orbit.label, row)
