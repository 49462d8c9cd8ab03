import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import reebkit as rk

CORPUS_SEED = 20240915
CORPUS_SIZE = 100


@dataclass
class CorpusRecord:
    path: rk.SymplecticPath
    loop: rk.SymmetricLoop
    mu_geo: int
    geo_degenerate: bool
    mu_spec: int
    spec_degenerate: bool
    rho: float
    rho_err: float


@dataclass
class Corpus:
    seed: int
    records: list = field(default_factory=list)
    build_seconds: float = 0.0


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    """100 random nondegenerate paths with both indices and rotation numbers."""
    t0 = time.monotonic()
    rng = np.random.default_rng(CORPUS_SEED)
    out = Corpus(seed=CORPUS_SEED)
    for _ in range(CORPUS_SIZE):
        path, loop = rk.random_nondegenerate_path(rng)
        g = rk.cz_geometric(path)
        s = rk.cz_spectral(loop)
        rho, err = rk.rotation_number_with_error(path)
        out.records.append(
            CorpusRecord(path, loop, g.index, g.degenerate, s.index, s.degenerate, rho, err)
        )
    out.build_seconds = time.monotonic() - t0
    print(f"\n[corpus] seed={out.seed} size={len(out.records)} build={out.build_seconds:.1f}s")
    return out


@pytest.fixture(scope="session")
def ell_s3() -> rk.ContactSystem:
    return rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0))


@pytest.fixture(scope="session")
def ell_l21() -> rk.ContactSystem:
    return rk.ContactSystem("ellipsoid", a=1.0, b=math.sqrt(2.0), lens=rk.LensParams(2, 1))


@pytest.fixture(scope="session")
def round_l21() -> rk.ContactSystem:
    return rk.ContactSystem("round", lens=rk.LensParams(2, 1))


@pytest.fixture
def linearize_calls(monkeypatch) -> list:
    """Labels of the orbits of every ``orbits.linearized_path`` call in the test."""
    calls = []
    original = rk.orbits.linearized_path

    def counted(orbit, *args, **kwargs):
        calls.append(orbit.label)
        return original(orbit, *args, **kwargs)

    monkeypatch.setattr(rk.orbits, "linearized_path", counted)
    return calls
