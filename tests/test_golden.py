"""The README commands, run in-process, write the bytes stored under ``tests/golden/``.

Each command's outputs are compared byte for byte with the stored files,
so a change that moves any digit of a report, CSV or SVG fails here.
``python tests/test_golden.py`` rewrites the stored files from the current
source; do so only for a change that is meant to move these bytes.
"""

import json
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
