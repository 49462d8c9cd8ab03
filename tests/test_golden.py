"""The README commands, run in-process, write the bytes stored under ``tests/golden/``.

Each command's outputs are compared byte for byte with the stored files,
so a change that moves any digit of a report, CSV or SVG fails here.  A
grid of systems, b in ``GRID_B`` times the lenses in ``GRID_LENSES``, runs
the commands in ``GRID_RUNS`` on each; ``tests/golden/grid.json`` holds
each run's exit code, its stderr and one sha256 per output file, so
refusals and degenerate cases are pinned beside the reports.
``python tests/test_golden.py`` rewrites the stored files and the manifest
from the current source; do so only for a change that is meant to move
these bytes.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from reebkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIG = json.dumps(
    {"family": "ellipsoid", "a": 1.0, "b": 1.4142135623730951, "lens": {"p": 2, "q": 1}}
)
TREE = '{"bound": 5, "root": {"period": 3.0, "mu": 2, "children": [{"period": 1.0, "mu": 2}]}}\n'

# name -> (argv with {name} for each output file, output files)
RUNS = {
    "verify": (
        ["verify", "--config", CONFIG, "--action-bound", "5", "--samples", "100", "--seed", "0",
         "--out", "{verify.json}", "--csv", "{verify.csv}", "--svg", "{verify.svg}"],
        ["verify.json", "verify.csv", "verify.svg"],
    ),
    "index-K": (["index", "--config", CONFIG, "--orbit", "K", "--k", "5",
                 "--out", "{index-K.json}"], ["index-K.json"]),
    "index-K-csv": (["index", "--config", CONFIG, "--orbit", "K", "--k", "5", "--format", "csv",
                     "--out", "{index-K.csv}"], ["index-K.csv"]),
    "index-Kprime": (["index", "--config", CONFIG, "--orbit", "Kprime", "--k", "5",
                      "--out", "{index-Kprime.json}"], ["index-Kprime.json"]),
    "index-Kprime-csv": (["index", "--config", CONFIG, "--orbit", "Kprime", "--k", "5",
                          "--format", "csv", "--out", "{index-Kprime.csv}"], ["index-Kprime.csv"]),
    "return-map": (["return-map", "--config", CONFIG, "--start", "0.5,0.3",
                    "--direction", "forward", "--out", "{return-map.json}"], ["return-map.json"]),
    "sigma": (["sigma", "--config", CONFIG, "--action-bound", "3", "--out", "{sigma.json}"],
              ["sigma.json"]),
    "lens": (["lens", "--p", "7", "--out", "{lens.json}"], ["lens.json"]),
    "tree-validate": (["tree-validate", "--tree", "{tree-input.json}", "--sigma", "0.4",
                       "--out", "{tree-validate.json}"], ["tree-validate.json"]),
}


GRID = GOLDEN / "grid.json"
GRID_B = (1.05, math.sqrt(2.0), 1.9, 3.7)
GRID_LENSES = (None, (1, 1), (2, 1), (3, 2), (5, 2), (12, 5), (7, 3))  # None: no lens block
VERIFY = ["verify", "--samples", "300", "--seed", "0", "--out", "{report.json}",
          "--csv", "{samples.csv}", "--svg", "{plot.svg}"]
# name -> (argv after the subcommand's --config, output files); the action
# bound 0.05 is below every period, so its catalog is empty and sampling runs
GRID_RUNS = {
    "verify-5": (VERIFY + ["--action-bound", "5"], ["report.json", "samples.csv", "plot.svg"]),
    "verify-0.05": (VERIFY + ["--action-bound", "0.05"],
                    ["report.json", "samples.csv", "plot.svg"]),
    "index-K": (["index", "--orbit", "K", "--k", "5", "--out", "{index.json}"], ["index.json"]),
    "index-Kprime-csv": (["index", "--orbit", "Kprime", "--k", "5", "--format", "csv",
                          "--out", "{index.csv}"], ["index.csv"]),
    "sigma": (["sigma", "--action-bound", "3", "--out", "{sigma.json}"], ["sigma.json"]),
    **{
        f"return-map-{direction}-{label}": (
            ["return-map", "--start", start, "--direction", direction, "--out", "{map.json}"],
            ["map.json"],
        )
        for direction in ("forward", "backward")
        for label, start in (("zero", "0.5,-0.0"), ("pi", "0.5,3.141592653589793"))
    },
}


def grid_systems() -> dict:
    """Name -> inline JSON config of each grid system."""
    out = {}
    for b in GRID_B:
        for lens in GRID_LENSES:
            cfg = {"family": "ellipsoid", "a": 1.0, "b": b}
            if lens is not None:
                cfg["lens"] = {"p": lens[0], "q": lens[1]}
            out[f"b{b!r}-" + ("S3" if lens is None else f"L{lens[0]}_{lens[1]}")] = json.dumps(cfg)
    return out


def run_grid(config: str, workdir: Path) -> dict:
    """Run name -> exit code, stderr and output digests of every grid run on one system."""
    out = {}
    for name, (argv, outputs) in GRID_RUNS.items():
        rundir = workdir / name
        rundir.mkdir()
        files = {f"{{{f}}}": str(rundir / f) for f in outputs}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([argv[0], "--config", config] + [files.get(a, a) for a in argv[1:]])
        out[name] = {
            "exit": code,
            "stderr": err.getvalue(),
            "sha256": {
                f: hashlib.sha256((rundir / f).read_bytes()).hexdigest()
                if (rundir / f).exists() else None
                for f in outputs
            },
        }
    return out


def run(name: str, workdir: Path) -> dict:
    """Exit code and output bytes of one README command run in ``workdir``."""
    argv, outputs = RUNS[name]
    (workdir / "tree-input.json").write_text(TREE, encoding="utf-8")
    files = {f"{{{f}}}": str(workdir / f) for f in outputs + ["tree-input.json"]}
    code = main([files.get(a, a) for a in argv])
    return {"code": code, **{f: (workdir / f).read_bytes() for f in outputs}}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_readme_command_bytes_match_golden(name, tmp_path):
    got = run(name, tmp_path)
    assert got.pop("code") == 0
    for fname, data in got.items():
        assert data == (GOLDEN / fname).read_bytes(), fname


@pytest.mark.parametrize("system", sorted(grid_systems()))
def test_grid_matches_manifest(system, tmp_path):
    want = json.loads(GRID.read_text(encoding="utf-8"))[system]
    got = run_grid(grid_systems()[system], tmp_path)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, f"{system}: moved runs {moved}"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            got = run(name, Path(tmp))
            if got.pop("code") != 0:
                sys.exit(f"{name} did not exit 0")
            for fname, data in got.items():
                (GOLDEN / fname).write_bytes(data)
    manifest = {}
    for system, config in grid_systems().items():
        with tempfile.TemporaryDirectory() as tmp:
            manifest[system] = run_grid(config, Path(tmp))
    # one line per run, so a moved run is one line of the manifest's diff
    GRID.write_text(
        "{\n" + ",\n".join(
            f" {json.dumps(system)}: {{\n" + ",\n".join(
                f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
                for name, entry in sorted(runs.items())
            ) + "\n }"
            for system, runs in sorted(manifest.items())
        ) + "\n}\n",
        encoding="utf-8",
    )
