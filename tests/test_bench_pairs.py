"""``tools/bench_pairs.py`` on two checkouts whose benchmark prints fixed results."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

_METRICS = [
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# a stand-in for perfbench/run.py: it logs its checkout and argv, then prints
# the environment line and the result line of its checkout's next run
_STUB = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    here = Path(__file__).resolve().parents[1]
    log = here.parent / "runs.log"
    with log.open("a") as fh:
        fh.write(json.dumps([here.name, sys.argv[1:]]) + "\\n")
    runs = sum(json.loads(line)[0] == here.name for line in log.read_text().splitlines())
    jobs, rss = json.loads((here / "values.json").read_text())[runs - 1]
    print(json.dumps({"environment": {}}))
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "jobs_per_s": {"value": jobs, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}))
""")


def _checkout(root: Path, name: str, values) -> Path:
    side = root / name
    (side / "perfbench").mkdir(parents=True)
    (side / "perfbench" / "run.py").write_text(_STUB)
    (side / "values.json").write_text(json.dumps(values))
    (side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _METRICS}))
    return side


def test_bench_pairs_alternates_and_counts_wins(tmp_path):
    parent = _checkout(tmp_path, "parent", [[100.0, 40.0], [104.0, 41.0], [98.0, 40.5]])
    change = _checkout(tmp_path, "change", [[120.0, 40.0], [103.0, 40.0], [125.0, 41.5]])
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "return-dense",
         "--seed", "2", "--seconds", "7", "--pairs", "3"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in (tmp_path / "runs.log").read_text().splitlines()]
    # the side that runs first alternates, and both run the benchmark unchanged
    assert [name for name, _ in runs] == ["parent", "change", "change", "parent",
                                          "parent", "change"]
    assert all(argv == ["--workload", "return-dense", "--seed", "2", "--seconds", "7",
                        "--trace", "0"] for _, argv in runs)
    out = proc.stdout
    assert "pair 2: parent 104  change 103  (change first)" in out
    assert "parent: median 100, quartiles 99 / 102" in out
    assert "change: median 120, quartiles 111.5 / 122.5" in out
    # 2 of 3 wins is below nine tenths
    assert "change wins 2/3; median gain 20 against the parent's quartile spread 3: " \
           "does not meet the gain rule" in out
    # lower is better, and the tied first pair counts for neither side; the change's
    # median is 0.5 lower, no more than the parent's spread
    assert "change wins 1/3; median gain 0.5 against the parent's quartile spread 0.5: " \
           "does not meet the gain rule" in out
    assert "import reebkit" not in TOOL.read_text() and "from reebkit" not in TOOL.read_text()


def test_bench_pairs_meets_the_rule_on_a_clear_gain(tmp_path):
    parent = _checkout(tmp_path, "parent", [[100.0, 40.0]] * 2)
    change = _checkout(tmp_path, "change", [[130.0, 39.0]] * 2)
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "orbit-sweep",
         "--seed", "1", "--seconds", "1", "--pairs", "2"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("meets the gain rule") == 2
    assert "does not meet" not in proc.stdout
