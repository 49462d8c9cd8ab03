"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np

import reebkit as rk
from reebkit.cli import main
from reebkit.knots import coprime_residues

SQRT2 = math.sqrt(2.0)


def _report(name: str, detail: str = ""):
    print(f"[PASS] {name}" + (f" -- {detail}" if detail else ""))


# ---------------------------------------------------------------------------


def test_criterion_1_cz_axioms(corpus):
    t0 = time.monotonic()
    # normalization: the half-turn rotation has index exactly 1
    assert rk.cz_geometric(rk.make_rotation_path(math.pi)).index == 1
    assert rk.cz_spectral(rk.SymmetricLoop.constant(math.pi * np.eye(2))).index == 1
    for rec in corpus.records:
        assert not rec.geo_degenerate
        # Maslov loop: prepending a full rotation shifts the index by exactly 2
        shifted = rk.cz_geometric(rk.prepend_loop(rec.path, 1))
        assert shifted.index == rec.mu_geo + 2
        # inverse: the pointwise-inverse path has the opposite index
        inv = rk.cz_geometric(rec.path.inverse())
        assert inv.index == -rec.mu_geo
    elapsed = corpus.build_seconds + (time.monotonic() - t0)
    assert elapsed < 60.0, f"axioms suite took {elapsed:.1f}s"
    _report(
        "criterion 1 (CZ axioms: normalization, Maslov shift, inverse)",
        f"{len(corpus.records)} paths, seed {corpus.seed}, {elapsed:.1f}s",
    )


def test_criterion_2_definition_agreement(corpus):
    mismatches = [
        (r.mu_geo, r.mu_spec) for r in corpus.records if r.mu_geo != r.mu_spec
    ]
    assert mismatches == []
    _report(
        "criterion 2 (spectral == geometric index)",
        f"{len(corpus.records)} paths, zero mismatches",
    )


def test_criterion_3_index_rotation_law(corpus):
    checked = 0
    for rec in corpus.records:
        variants = [(rec.path, rec.mu_geo, rec.rho)]
        for m in (1, 2):  # widen the index range with exact Maslov shifts
            p = rk.prepend_loop(rec.path, m)
            variants.append((p, rec.mu_geo + 2 * m, rk.rotation_number(p)))
        for _path, mu, rho in variants:
            assert (mu >= 3) == (rho > 1 + 1e-6), (mu, rho)
            if mu == 2:
                assert abs(rho - 1.0) < 1e-6
            checked += 1
    _report("criterion 3 (mu >= 3 iff rho > 1)", f"{checked} path variants")


def test_criterion_4_ellipsoid_index_table():
    t0 = time.monotonic()
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=SQRT2)
    K, _ = rk.principal_orbits(sys_)
    theta = 1 + 1 / SQRT2
    rows = []
    for k in range(1, 6):
        # closed-form oracle: the disk-frame path is the rigid rotation by
        # 2 pi k theta, so the index is mu_tilde of the point {k theta}
        mu_oracle = rk.mu_tilde((k * theta, k * theta))
        # full numerical pipeline: closed-form linearized flow in the disk
        # frame -> S(t) -> spectrum -> 2 wind + parity
        orbit_k = K.iterate(k)
        path = rk.linearized_path(orbit_k)
        loop = rk.asymptotic_loop(path)
        mu_pipeline = rk.cz_spectral(loop).index
        assert mu_pipeline == mu_oracle, (k, mu_pipeline, mu_oracle)
        # the geometric route agrees as well
        assert rk.cz_geometric(path).index == mu_oracle
        rows.append((k, mu_oracle))
    assert [mu for _, mu in rows] == [3, 7, 11, 13, 17]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report("criterion 4 (ellipsoid index table, two routes)", f"{rows}, {elapsed:.1f}s")


def test_criterion_5_lens_invariants():
    checked = 0
    for p in range(1, 13):
        for q in coprime_residues(p):
            lens = rk.LensParams(p, q)
            assert rk.binding_sl_numeric(lens.p) == -p, (p, q)
            assert rk.lens_binding_monodromy(lens) == (p - q) % p, (p, q)
            checked += 1
    _report("criterion 5 (sl = -p and mon = -q for p <= 12)", f"{checked} pairs")


def test_criterion_6_classification_arithmetic():
    assert not rk.lens_homeomorphic(5, 1, 2)
    assert rk.lens_homotopy_equivalent(7, 1, 2)
    assert not rk.lens_homeomorphic(7, 1, 2)
    for p in range(2, 51):
        qs = coprime_residues(p)
        for a in qs:
            assert rk.lens_homeomorphic(p, a, a)
            assert rk.lens_homotopy_equivalent(p, a, a)
        for a in qs:
            for b in qs:
                hab = rk.lens_homeomorphic(p, a, b)
                assert hab == rk.lens_homeomorphic(p, b, a)
                if hab:
                    assert rk.lens_homotopy_equivalent(p, a, b)
                for c in qs:
                    if hab and rk.lens_homeomorphic(p, b, c):
                        assert rk.lens_homeomorphic(p, a, c)
    _report("criterion 6 (classification arithmetic, exhaustive p <= 50)")


def test_criterion_7_gss_verification():
    t0 = time.monotonic()
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=SQRT2, lens=rk.LensParams(2, 1))
    report, samples = rk.verify_gss_conditions(sys_, C=5.0, n_samples=100, seed=0)
    assert report["all_pass"], report["violated"]
    assert report["binding"]["sl_numeric"] == -2
    assert report["binding"]["mu_cz_Kp"] == 3
    assert report["gss_sampling"]["forward_ok"] == 100
    assert report["gss_sampling"]["backward_ok"] == 100
    assert report["fixed_point"]["distance_to_center"] < 1e-6
    assert report["area_preservation"]["form_theta_defect"] < 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(
        "criterion 7 (GSS verification on L(2,1))",
        f"100/100 returns, form theta defect {report['area_preservation']['form_theta_defect']:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_bookkeeping():
    rng = np.random.default_rng(123)
    for _ in range(50):
        periods = np.unique(np.round(rng.uniform(0.1, 9.0, size=rng.integers(1, 9)), 4))
        cat = rk.PeriodCatalog([(str(i), p) for i, p in enumerate(periods)], 10.0)
        sigma = rk.sigma_gap(cat)
        assert 0 < sigma
        for p in cat.periods:
            assert sigma < p
        for p1 in cat.periods:
            for p2 in cat.periods:
                if p1 != p2:
                    assert sigma < abs(p1 - p2)

    valid = {
        "bound": 5.0,
        "root": {
            "period": 3.0,
            "mu": 2,
            "children": [
                {"period": 1.0, "mu": 2},
                {"period": 1.5, "mu": 2, "children": [{"period": 0.5, "mu": 2}]},
            ],
        },
    }
    ok, violations = rk.validate_tree(rk.tree_from_json(valid), 0.4)
    assert ok, violations

    def mutate(fn):
        data = json.loads(json.dumps(valid))
        fn(data)
        return rk.tree_from_json(data)

    mutants = [
        ("a", mutate(lambda d: d["root"]["children"][0].__setitem__("period", 2.8))),
        ("b", mutate(lambda d: d["root"]["children"][0].__setitem__("mu", 1))),
        ("c", mutate(lambda d: d["root"]["children"][1].__setitem__("mu", 3))),
        ("d", mutate(lambda d: d["root"]["children"][0].__setitem__("parent_edge_period", 1.2))),
        ("e", mutate(lambda d: d["root"].__setitem__("period", 6.0))),
    ]
    for rule, tree in mutants:
        ok, violations = rk.validate_tree(tree, 0.4)
        assert not ok
        assert any(v_rule == rule for v_rule, _ in violations), (rule, violations)

    assert rk.wind_pi_from_relation(rk.plane_data(1)) == 0
    _report("criterion 8 (sigma gap, tree validation, winding relation)", "5 mutants rejected")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "sys.json"
    cfg.write_text(
        json.dumps({"family": "ellipsoid", "a": 1.0, "b": SQRT2, "lens": {"p": 2, "q": 1}})
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--config", str(cfg), "--action-bound", "3", "--samples", "12",
            "--seed", "2717"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report("criterion 9 (byte-identical verify reports)", "seed 2717")
