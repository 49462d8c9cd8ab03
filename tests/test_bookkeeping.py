import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reebkit as rk
from reebkit.bookkeeping import violations_json
from reebkit.errors import PreconditionViolation, ResolutionFailure, StructuralError


# ---------------------------------------------------------------------------
# sigma


def test_sigma_gap_examples():
    cat = rk.PeriodCatalog([("a", math.pi), ("b", 2 * math.pi), ("c", 3 * math.pi)], 10.0)
    assert rk.sigma_gap(cat) == pytest.approx(math.pi / 2)
    assert rk.sigma_gap(rk.PeriodCatalog([("a", 1.0)], 2.0)) == pytest.approx(0.5)


def test_sigma_gap_empty_after_cutoff():
    with pytest.raises(StructuralError):
        rk.sigma_gap(rk.PeriodCatalog([("a", 5.0)], 2.0))


def test_sigma_gap_resolution_failure():
    cat = rk.PeriodCatalog([("a", 1.0), ("b", 1.0 + 1e-12)], 2.0)
    with pytest.raises(ResolutionFailure):
        rk.sigma_gap(cat)


@pytest.mark.parametrize("factor, refused", [(0.9, True), (1.1, False)])
def test_catalog_and_sigma_gap_refuse_at_the_same_spacing(factor, refused):
    # on S^3 with b = 2 + gap, K^2 and K' have the periods 2 and 2 + gap
    gap = factor * rk.bookkeeping.PERIOD_RESOLUTION
    sys_ = rk.ContactSystem("ellipsoid", a=1.0, b=2.0 + gap)
    cat = rk.PeriodCatalog([("K^2", 2.0), ("K'^1", 2.0 + gap)], 3.0)
    if refused:
        with pytest.raises(rk.DegenerateInput, match="numerically indistinguishable"):
            rk.catalog(sys_, 3.0)
        with pytest.raises(ResolutionFailure):
            rk.sigma_gap(cat)
    else:
        periods = [orbit.period for orbit in rk.catalog(sys_, 3.0)]
        assert periods == [1.0, 2.0, 2.0 + gap, 3.0]
        assert rk.sigma_gap(cat) == pytest.approx(gap / 2)


@given(
    st.lists(st.floats(0.05, 20.0), min_size=1, max_size=12),
    st.floats(5.0, 25.0),
)
def test_sigma_gap_strict_inequality(periods, bound):
    cat = rk.PeriodCatalog([(str(i), p) for i, p in enumerate(periods)], bound)
    ps = cat.periods
    if not ps:
        return
    try:
        sigma = rk.sigma_gap(cat)
    except ResolutionFailure:
        return
    assert sigma > 0
    for p in ps:
        assert sigma < p
    for p1 in ps:
        for p2 in ps:
            if p1 != p2:
                assert sigma < abs(p1 - p2)


# ---------------------------------------------------------------------------
# winding relations


def test_wind_pi_plane_cases():
    assert rk.wind_pi_from_relation(rk.plane_data(1)) == 0
    d = rk.plane_data(0)
    assert rk.wind_pi_from_relation(d) == -1
    assert not rk.wind_pi_feasible(d)


def test_wind_pi_cylinder():
    cyl = rk.CurveWindingData((1,), (1,), 2)
    assert rk.wind_pi_from_relation(cyl) == 0


def test_wind_pi_needs_a_puncture():
    with pytest.raises(PreconditionViolation):
        rk.CurveWindingData((), (), 2)


def test_wind_pi_feasibility_exhaustive_small():
    # the relation rejects exactly the parameter sets with negative interior
    # count: wind_inf < chi - #punctures
    for chi in (2,):
        for n_pos in (1, 2):
            for n_neg in (0, 1, 2):
                if n_pos + n_neg > 4:
                    continue
                from itertools import product

                for pos in product(range(-3, 4), repeat=n_pos):
                    for neg in product(range(-3, 4), repeat=n_neg):
                        d = rk.CurveWindingData(pos, neg, chi)
                        w = sum(pos) - sum(neg)
                        expected = w - chi + n_pos + n_neg
                        assert rk.wind_pi_from_relation(d) == expected
                        assert rk.wind_pi_feasible(d) == (expected >= 0)


# ---------------------------------------------------------------------------
# tree validation


def _valid_tree() -> rk.BubblingTree:
    return rk.tree_from_json(
        {
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
    )


def test_single_vertex_tree_passes():
    tree = rk.tree_from_json({"bound": 5.0, "root": {"period": 3.0, "mu": 3}})
    ok, violations = rk.validate_tree(tree, 0.4)
    assert ok and violations == []


def test_valid_tree_passes():
    ok, violations = rk.validate_tree(_valid_tree(), 0.4)
    assert ok, violations


def test_rule_a_gap_violation():
    tree = rk.tree_from_json(
        {"bound": 5.0, "root": {"period": 3.0, "mu": 2, "children": [{"period": 2.8, "mu": 2}]}}
    )
    ok, violations = rk.validate_tree(tree, 0.4)
    assert not ok and violations == [("a", "root/0")]


def test_rule_b_index_floor():
    tree = _valid_tree()
    tree.root.children[0].mu = 1
    ok, violations = rk.validate_tree(tree, 0.4)
    assert ("b", "root/0") in violations
    # an index-1 child also breaks the propagation rule at the root? it does
    # not: rule (c) only binds when every child has mu >= 2
    assert all(rule != "c" for rule, _ in violations)


def test_rule_c_propagation():
    tree = _valid_tree()
    tree.root.children[1].mu = 3
    ok, violations = rk.validate_tree(tree, 0.4)
    assert ("c", "root") in violations and not ok


def test_rule_d_edge_period_mismatch():
    tree = _valid_tree()
    tree.root.children[0].parent_edge_period = 1.2
    ok, violations = rk.validate_tree(tree, 0.4)
    assert ("d", "root/0") in violations


def test_rule_e_energy_bound():
    tree = _valid_tree()
    tree.root.period = 6.0
    ok, violations = rk.validate_tree(tree, 0.4)
    assert ("e", "root") in violations


def test_validator_monotone_in_sigma():
    tree = _valid_tree()
    for sigma in (0.4, 0.2, 0.05, 0.01):
        ok, _ = rk.validate_tree(tree, sigma)
        assert ok
    # the smallest parent-child gap is 1.0, so a sigma above it must fail
    ok_big, _ = rk.validate_tree(tree, 1.1)
    assert not ok_big


def test_validator_rejects_nonpositive_sigma():
    with pytest.raises(PreconditionViolation):
        rk.validate_tree(_valid_tree(), 0.0)


def test_malformed_tree_raises_structural_error():
    with pytest.raises(StructuralError):
        rk.tree_from_json({"bound": 1.0, "root": {"period": 1.0}})
    with pytest.raises(StructuralError):
        rk.tree_from_json({"root": {"period": 1.0, "mu": 2}})
    with pytest.raises(StructuralError):
        rk.tree_from_json({"bound": 1.0, "root": {"period": 1.0, "mu": 2, "children": 3}})


def test_tree_nested_deeper_than_the_cap_is_refused():
    def chain(depth):
        node = {"period": 1.0, "mu": 2}
        for _ in range(depth):
            node = {"period": 1.0, "mu": 2, "children": [node]}
        return {"bound": 5.0, "root": node}

    rk.tree_from_json(chain(200))
    with pytest.raises(StructuralError, match="deeper than 200 levels"):
        rk.tree_from_json(chain(201))


def test_tree_json_round_trip():
    tree = _valid_tree()
    data = rk.tree_to_json(tree)
    back = rk.tree_from_json(data)
    assert rk.tree_to_json(back) == data


def test_violations_json_shape():
    tree = _valid_tree()
    tree.root.children[0].mu = 0
    _, violations = rk.validate_tree(tree, 0.4)
    rows = violations_json(violations)
    assert rows and all(set(r) == {"rule", "vertex"} for r in rows)
