"""Seeded inputs, jobs and per-job correctness checks for the three workloads.

Every job drives reebkit only through its public API or through
``reebkit.cli.main`` called in-process, and checks its output against a
source that does not share code with the step it checks: the closed-form
ellipsoid indices, the arithmetic of the period catalog, the report's own
sample counts, or a second index route.  A job that raises, exits nonzero or
fails a check counts as failed.

Inputs are fixed by the seed: the same seed gives the same systems, paths,
action bounds and CLI seeds.  Jobs of a run cycle through a pool of inputs,
so a repeated job's output bytes are compared with the sha256 recorded the
first time it ran.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import reebkit as rk
import reebkit.cli

A = 1.0
B_RANGE = (1.1, 1.9)
B_RETURN = (1.4, 1.6)   # narrow: a return scan takes about 16 b/a steps, so return-dense jobs cost alike
RESONANCE_DEN = 12      # b/a must stay away from rationals with this denominator or less
RESONANCE_GAP = 1e-3
P_SWEEP = (2, 3, 4, 5)

ORBIT_K = 4             # `index --k` for K and K'
ORBIT_CATALOG = 10      # catalog size the action bound is chosen for
ORBIT_SAMPLES = 20      # return samples of the small `verify`
RETURN_SAMPLES = 2000   # return samples of the dense `verify`
PATH_POOL = 64          # distinct corpus paths before path-corpus repeats
PATH_DEGREE = 3
PATH_SCALE = 5.0
BIRKHOFF_ITERATES = 64


class CheckFailed(Exception):
    """A job's output disagrees with its independent check."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def mu_point(x: float) -> int:
    """mu_tilde of the point interval {x} for non-integer x: 2*floor(x) + 1."""
    check(abs(x - round(x)) > 1e-6, f"closed-form argument {x} is resonant")
    return 2 * math.floor(x) + 1


def _nonresonant_b(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        b = rng.uniform(lo, hi)
        near = Fraction(b / A).limit_denominator(RESONANCE_DEN)
        if abs(b / A - float(near)) > RESONANCE_GAP:
            return b


def _stratified_b(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One b from each of n equal slices of (lo, hi), in ascending order.

    The cost of a job depends on b, so every pool spans the range evenly
    and pools of different seeds cost about the same.
    """
    width = (hi - lo) / n
    return [_nonresonant_b(rng, lo + i * width, lo + (i + 1) * width) for i in range(n)]


def _lens_system(p: int, q: int, b: float) -> dict:
    return {"family": "ellipsoid", "a": A, "b": b, "lens": {"p": p, "q": q}}


def _catalog_periods(p: int, b: float, C: float) -> list[float]:
    periods = [k * A / p for k in range(1, int(C * p / A) + 2) if k * A / p <= C]
    periods += [k * b / p for k in range(1, int(C * p / b) + 2) if k * b / p <= C]
    return sorted(periods)


def _bound_for_size(p: int, b: float, n: int) -> float:
    """An action bound midway between the n-th and (n+1)-th catalog periods."""
    periods = _catalog_periods(p, b, (n + 1) * max(A, b) / p)
    return 0.5 * (periods[n - 1] + periods[n])


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _cli(argv: list[str]) -> None:
    code = reebkit.cli.main(argv)
    check(code == 0, f"`reebkit {argv[0]}` exited {code}")


def _check_verify(report: dict, p: int, b: float) -> None:
    binding = report["binding"]
    check(report["all_pass"] is True, f"verify violated {report['violated']}")
    check(binding["sl_numeric"] == -p, f"sl_numeric {binding['sl_numeric']} != {-p}")
    expected = mu_point(1.0 + A / b)
    check(binding["mu_cz_Kp"] == expected, f"mu_cz(K^p) {binding['mu_cz_Kp']} != {expected}")


# Each job type has a ``key`` naming its input and a ``run(workdir)`` that
# returns the sha256 of every byte the job produced.


@dataclass
class OrbitSweepJob:
    key: str
    p: int
    q: int
    b: float
    bound: float
    catalog_size: int
    k: int
    samples: int
    seed: int

    def run(self, workdir: Path) -> str:
        cfg = json.dumps(_lens_system(self.p, self.q, self.b))
        out = {name: workdir / f"{name}.json" for name in ("K", "Kprime", "verify", "sigma")}
        for orbit in ("K", "Kprime"):
            _cli(["index", "--config", cfg, "--orbit", orbit, "--k", str(self.k),
                  "--out", str(out[orbit])])
        _cli(["verify", "--config", cfg, "--action-bound", repr(self.bound),
              "--samples", str(self.samples), "--seed", str(self.seed),
              "--out", str(out["verify"])])
        _cli(["sigma", "--config", cfg, "--action-bound", repr(self.bound),
              "--out", str(out["sigma"])])
        blobs = {name: path.read_bytes() for name, path in out.items()}

        for orbit, ratio in (("K", A / self.b), ("Kprime", self.b / A)):
            rows = json.loads(blobs[orbit])["rows"]
            check([r["k"] for r in rows] == list(range(1, self.k + 1)), f"{orbit} rows")
            for r in rows:
                x = r["k"] * (1.0 + ratio) / self.p
                check(r["mu_cz"] == mu_point(x),
                      f"{orbit}^{r['k']}: mu_cz {r['mu_cz']} != {mu_point(x)}")
                check(abs(r["rho"] - x) < 1e-6, f"{orbit}^{r['k']}: rho {r['rho']} != {x}")

        report = json.loads(blobs["verify"])
        _check_verify(report, self.p, self.b)
        periods = _catalog_periods(self.p, self.b, self.bound)
        check(len(periods) == self.catalog_size, "action bound misses the catalog size")
        check(len(report["pstar"]["orbits"]) == self.catalog_size,
              f"catalog has {len(report['pstar']['orbits'])} orbits, not {self.catalog_size}")

        sigma = json.loads(blobs["sigma"])
        gaps = [periods[0]] + [t2 - t1 for t1, t2 in zip(periods, periods[1:])]
        check(len(sigma["periods"]) == self.catalog_size, "sigma catalog size")
        check(math.isclose(sigma["sigma"], 0.5 * min(gaps), rel_tol=1e-9),
              f"sigma {sigma['sigma']} != {0.5 * min(gaps)}")
        return _digest(*blobs.values())


@dataclass
class ReturnDenseJob:
    key: str
    p: int
    q: int
    b: float
    samples: int
    seed: int

    def run(self, workdir: Path) -> str:
        cfg = json.dumps(_lens_system(self.p, self.q, self.b))
        report_path = workdir / "verify.json"
        csv_path = workdir / "samples.csv"
        bound = 0.5 * min(A, self.b) / self.p  # below the shortest period: empty catalog
        _cli(["verify", "--config", cfg, "--action-bound", repr(bound),
              "--samples", str(self.samples), "--seed", str(self.seed),
              "--out", str(report_path), "--csv", str(csv_path)])
        report_bytes = report_path.read_bytes()
        csv_bytes = csv_path.read_bytes()

        report = json.loads(report_bytes)
        _check_verify(report, self.p, self.b)
        check(report["pstar"]["orbits"] == [], "catalog is not empty")
        sampling = report["gss_sampling"]
        n = self.samples
        check(sampling["n"] == sampling["forward_ok"] == sampling["backward_ok"] == n,
              f"return sampling {sampling} != {n}")
        lines = csv_bytes.decode().splitlines()
        check(len(lines) == n + 1, f"CSV has {len(lines)} lines, not {n + 1}")
        return _digest(report_bytes, csv_bytes)


@dataclass
class PathCorpusJob:
    key: str
    entropy: tuple

    def run(self, workdir: Path) -> str:
        rng = np.random.default_rng(list(self.entropy))
        path, loop = rk.random_nondegenerate_path(rng, degree=PATH_DEGREE, scale=PATH_SCALE)
        geo = rk.cz_geometric(path)
        spec = rk.cz_spectral(loop)
        rho, err = rk.rotation_number_with_error(path, iterates=BIRKHOFF_ITERATES)

        check(not geo.degenerate and not spec.degenerate, "degenerate corpus path")
        check(geo.index == spec.index, f"geometric {geo.index} != spectral {spec.index}")
        check((geo.index >= 3) == (rho > 1.0 + 1e-6), f"mu {geo.index} vs rho {rho}")
        if geo.index == 2:
            check(abs(rho - 1.0) < 1e-6, f"mu 2 with rho {rho}")
        record = [geo.index, spec.index, float(rho), float(err)]
        return _digest(json.dumps(record).encode())


# ---------------------------------------------------------------------------
# seeded pools

Job = OrbitSweepJob | ReturnDenseJob | PathCorpusJob


def _coprime_q(rng: random.Random, p: int) -> int:
    return rng.choice([q for q in range(1, p + 1) if math.gcd(p, q) == 1])


def _orbit_sweep(seed: int) -> tuple[Job, list[Job]]:
    rng = random.Random(f"orbit-sweep/{seed}")

    def make(tag: str, p: int, b: float, n: int, k: int, samples: int) -> OrbitSweepJob:
        q = _coprime_q(rng, p)
        return OrbitSweepJob(key=f"{tag}:L({p},{q}) b={b!r}", p=p, q=q, b=b,
                             bound=_bound_for_size(p, b, n), catalog_size=n, k=k,
                             samples=samples, seed=rng.randrange(2**31))

    warmup = make("warmup", rng.choice(P_SWEEP), _nonresonant_b(rng, *B_RANGE), 4, 2, 4)
    # the largest b goes to p = 2, so every pool's catalogs reach the same
    # longest iterated path (K^6 on L(2,q)), which sets the peak memory
    bs = _stratified_b(rng, len(P_SWEEP), *B_RANGE)[::-1]
    pool = [make(f"pool{i}", p, b, ORBIT_CATALOG, ORBIT_K, ORBIT_SAMPLES)
            for i, (p, b) in enumerate(zip(P_SWEEP, bs))]
    return warmup, pool


def _return_dense(seed: int) -> tuple[Job, list[Job]]:
    rng = random.Random(f"return-dense/{seed}")

    def make(tag: str, p: int, b: float, samples: int) -> ReturnDenseJob:
        q = _coprime_q(rng, p)
        return ReturnDenseJob(key=f"{tag}:L({p},{q}) b={b!r}", p=p, q=q, b=b,
                              samples=samples, seed=rng.randrange(2**31))

    warmup = make("warmup", 2, _nonresonant_b(rng, *B_RETURN), 200)
    ps = (2, 3, 2, 3)
    pool = [make(f"pool{i}", p, b, RETURN_SAMPLES)
            for i, (p, b) in enumerate(zip(ps, _stratified_b(rng, len(ps), *B_RETURN)))]
    return warmup, pool


def _path_corpus(seed: int) -> tuple[Job, list[Job]]:
    warmup = PathCorpusJob(key="warmup", entropy=(seed, 1, 0))
    pool = [PathCorpusJob(key=f"path{j}", entropy=(seed, 0, j)) for j in range(PATH_POOL)]
    return warmup, pool


WORKLOADS = {
    "orbit-sweep": _orbit_sweep,
    "return-dense": _return_dense,
    "path-corpus": _path_corpus,
}


def build(workload: str, seed: int) -> tuple[Job, list[Job]]:
    """The untimed warm-up job and the pool the timed jobs cycle through."""
    return WORKLOADS[workload](seed)
