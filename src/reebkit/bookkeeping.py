"""Combinatorial bookkeeping: period gaps, winding relations, tree validation.

These are the integer/real arithmetic consequences of compactness analysis:
a positive gap constant separating catalogued periods, the relation between
interior and asymptotic winding counts of punctured curves, and the rules a
bubbling-off tree of (period, index) labels must satisfy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

from .errors import PreconditionViolation, ResolutionFailure, StructuralError

PERIOD_RESOLUTION = 1e-9  # closest two periods ``sigma_gap`` and ``orbits.catalog`` tell apart


def _finite(value, what: str) -> float:
    """A real number that is finite, as a float; strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise StructuralError(f"{what} must be a finite number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# period catalogs and the gap constant


@dataclass
class PeriodCatalog:
    """Labelled finite periods below a finite action bound, kept sorted ascending."""

    entries: list  # (label, period) pairs
    bound: float

    def __post_init__(self):
        self.bound = _finite(self.bound, "the catalog bound")
        cleaned = []
        for label, period in self.entries:
            period = _finite(period, "a catalog period")
            if period <= 0:
                raise PreconditionViolation(f"periods must be positive, got {period}")
            if period <= self.bound + 1e-15:
                cleaned.append((str(label), period))
        self.entries = sorted(cleaned, key=lambda e: e[1])

    @property
    def periods(self) -> list[float]:
        return [p for _, p in self.entries]


def sigma_gap(cat: PeriodCatalog) -> float:
    """Half the smallest of all periods and all gaps between distinct periods.

    The returned value sigma satisfies 0 < sigma < min(T', |T' - T''|) over
    periods up to the bound, strictly, which is the defining property of the
    gap constant.
    """
    ps = cat.periods
    if not ps:
        raise StructuralError("empty catalog after the action cutoff")
    best = ps[0]
    for p1, p2 in zip(ps, ps[1:]):
        gap = p2 - p1
        if gap < PERIOD_RESOLUTION:
            raise ResolutionFailure(
                f"periods {p1!r} and {p2!r} are closer than {PERIOD_RESOLUTION:g}"
            )
        best = min(best, gap)
    return 0.5 * best


# ---------------------------------------------------------------------------
# winding relations for punctured curves


@dataclass(frozen=True)
class CurveWindingData:
    """Asymptotic winding numbers and topology of a punctured curve."""

    wind_inf_positive: tuple
    wind_inf_negative: tuple
    euler_char: int

    def __post_init__(self):
        if self.puncture_count < 1:
            raise PreconditionViolation("a finite-energy curve has at least one puncture")

    @property
    def puncture_count(self) -> int:
        return len(self.wind_inf_positive) + len(self.wind_inf_negative)


def wind_pi_from_relation(d: CurveWindingData) -> int:
    """Interior winding from the asymptotic data: wind_inf - chi + #punctures."""
    wind_inf = sum(d.wind_inf_positive) - sum(d.wind_inf_negative)
    return wind_inf - d.euler_char + d.puncture_count


def wind_pi_feasible(d: CurveWindingData) -> bool:
    """Interior windings count zeros positively, so negative values are impossible."""
    return wind_pi_from_relation(d) >= 0


def plane_data(wind_inf: int) -> CurveWindingData:
    """A finite-energy plane: a sphere with one positive puncture."""
    return CurveWindingData((wind_inf,), (), 2)


# ---------------------------------------------------------------------------
# bubbling-off trees


@dataclass
class TreeVertex:
    """A vertex: positive-puncture period, index label, children below it.

    ``parent_edge_period`` is the period label carried by the edge from the
    parent; when present it must match the vertex's own period (the
    asymptotic limits on the two sides of an edge coincide).
    """

    period: float
    mu: int
    children: list = field(default_factory=list)
    parent_edge_period: Optional[float] = None


@dataclass
class BubblingTree:
    root: TreeVertex
    bound: float


_MAX_TREE_DEPTH = 200  # below the JSON decoder's nesting limit, far below the recursion limit


def tree_from_json(data: dict) -> BubblingTree:
    """The tree of a JSON object; one nested deeper than ``_MAX_TREE_DEPTH`` is refused.

    Periods, the bound and edge periods must be finite numbers, and each ``mu`` an integer.
    """
    if not isinstance(data, dict) or "root" not in data or "bound" not in data:
        raise StructuralError("tree JSON needs 'root' and 'bound' fields")

    def parse(node, depth=0) -> TreeVertex:
        if depth > _MAX_TREE_DEPTH:
            raise StructuralError(f"tree is nested deeper than {_MAX_TREE_DEPTH} levels")
        if not isinstance(node, dict) or "period" not in node or "mu" not in node:
            raise StructuralError("each vertex needs 'period' and 'mu'")
        children = node.get("children", [])
        if not isinstance(children, list):
            raise StructuralError("'children' must be a list")
        mu = node["mu"]
        if isinstance(mu, bool) or not isinstance(mu, int):
            raise StructuralError(f"'mu' must be an integer, got {mu!r}")
        edge = node.get("parent_edge_period")
        return TreeVertex(
            period=_finite(node["period"], "'period'"),
            mu=mu,
            children=[parse(c, depth + 1) for c in children],
            parent_edge_period=None if edge is None else _finite(edge, "'parent_edge_period'"),
        )

    return BubblingTree(root=parse(data["root"]), bound=_finite(data["bound"], "'bound'"))


def tree_to_json(tree: BubblingTree) -> dict:
    def dump(v: TreeVertex) -> dict:
        out: dict = {"period": v.period, "mu": v.mu}
        if v.parent_edge_period is not None:
            out["parent_edge_period"] = v.parent_edge_period
        if v.children:
            out["children"] = [dump(c) for c in v.children]
        return out

    return {"root": dump(tree.root), "bound": tree.bound}


def validate_tree(tree: BubblingTree, sigma: float) -> tuple[bool, list]:
    """Check the labelling rules of a bubbling-off tree at gap constant sigma.

    Rules: (a) every child period is below the parent period minus sigma;
    (b) every index label is >= 2; (c) once a vertex has label 2 and all its
    children have labels >= 2, the children labels are exactly 2, propagated
    from the root; (d) an explicit parent-edge period matches the child's
    period; (e) all periods are within the energy bound.  Returns a pass
    flag and the list of (rule, vertex-path) violations.
    """
    if not 0 < sigma < math.inf:
        raise PreconditionViolation(f"sigma must be positive and finite, got {sigma}")
    violations: list[tuple[str, str]] = []

    def walk(v: TreeVertex, path: str):
        if not isinstance(v.children, list):
            raise StructuralError(f"vertex {path} has a malformed child list")
        if v.period > tree.bound + 1e-15:
            violations.append(("e", path))
        if v.mu < 2:
            violations.append(("b", path))
        if v.children and v.mu == 2 and all(c.mu >= 2 for c in v.children):
            if any(c.mu != 2 for c in v.children):
                violations.append(("c", path))
        for i, c in enumerate(v.children):
            cpath = f"{path}/{i}"
            if not isinstance(c, TreeVertex):
                raise StructuralError(f"dangling edge at {cpath}")
            if c.parent_edge_period is not None and abs(
                c.parent_edge_period - c.period
            ) > 1e-12 * max(1.0, abs(c.period)):
                violations.append(("d", cpath))
            if not c.period < v.period - sigma:
                violations.append(("a", cpath))
            walk(c, cpath)

    walk(tree.root, "root")
    return (not violations, violations)


def violations_json(violations: list) -> list:
    return [{"rule": rule, "vertex": path} for rule, path in violations]
