import argparse
import ast
import json
import logging
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import reebkit
import reebkit.cli
import reebkit.section
from reebkit.cli import main

ELL_L21 = {"family": "ellipsoid", "a": 1.0, "b": math.sqrt(2.0), "lens": {"p": 2, "q": 1}}
ELL_S3 = {"family": "ellipsoid", "a": 1.0, "b": math.sqrt(2.0)}


@pytest.fixture
def sys_file(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(ELL_L21))
    return str(path)


@pytest.fixture
def s3_file(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(ELL_S3))
    return str(path)


# ---------------------------------------------------------------------------
# index


def test_index_table(s3_file, tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(["index", "--config", s3_file, "--orbit", "K", "--k", "3", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    rows = data["rows"]
    assert [r["mu_cz"] for r in rows] == [3, 7, 11]
    assert rows[0]["rho"] == pytest.approx(1 + 1 / math.sqrt(2.0), abs=1e-9)


def test_index_csv_format(s3_file, capsys):
    code = main(["index", "--config", s3_file, "--format", "csv", "--k", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,mu_cz,rho,degenerate,convention"
    assert lines[1].startswith("1,3,")


@pytest.mark.parametrize(
    "config",
    [
        {"family": "round"},
        {"family": "ellipsoid", "a": 1.0, "b": 1.0},
        {"family": "ellipsoid", "a": 1.0, "b": 1.0, "lens": {"p": 2, "q": 1}},
    ],
    ids=["round", "equal-capacities-s3", "equal-capacities-l21"],
)
def test_index_round_system_exits_degenerate(config, capsys):
    code = main(["index", "--config", json.dumps(config), "--k", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("degenerate: ") and err.count("degenerate:") == 1


def test_index_missing_config_exits_usage(tmp_path, capsys):
    code = main(["index", "--config", str(tmp_path / "nope.json")])
    assert code == 1


def test_usage_error_without_command(capsys):
    assert main([]) == 1


def test_usage_error_on_unknown_flag(s3_file):
    assert main(["index", "--config", s3_file, "--bogus"]) == 1


def test_help_is_plain_text(capsys):
    # the description is the module docstring without its reST literals
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: reebkit") and "Subcommands: index, verify" in out
    assert "``" not in out


# ---------------------------------------------------------------------------
# verify


def test_verify_writes_report_and_artifacts(sys_file, tmp_path):
    out = tmp_path / "report.json"
    svg = tmp_path / "plot.svg"
    csv = tmp_path / "samples.csv"
    code = main(
        [
            "verify", "--config", sys_file, "--action-bound", "3", "--samples", "8",
            "--seed", "5", "--out", str(out), "--svg", str(svg), "--csv", str(csv),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]
    assert report["seed"] == 5
    assert report["binding"]["sl_numeric"] == -2
    svg_text = svg.read_text()
    assert svg_text.startswith("<svg") and "circle" in svg_text
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 9  # header + 8 samples


def _naive_samples_csv(samples) -> str:
    """The samples CSV with all eight fields of every row formatted, as one string.

    Every return keeps the radius, so both images are written at the start radius.
    """
    lines = ["start_r,start_theta,forward_time,forward_r,forward_theta,"
             "backward_time,backward_r,backward_theta"]
    for r, th, fth, bth in zip(
        samples.radii, samples.thetas, samples.forward_angles, samples.backward_angles
    ):
        lines.append(f"{r:.12g},{th:.12g},{samples.forward_time:.12g},{r:.12g},{fth:.12g},"
                     f"{samples.backward_time:.12g},{r:.12g},{bth:.12g}")
    return "\n".join(lines) + "\n"


def _random_samples(n, seed):
    """``ReturnSamples`` of ``n`` random starts."""
    rng = np.random.default_rng(seed)
    radii, thetas = rng.uniform(0.05, 0.95, n).tolist(), rng.uniform(-7.0, 7.0, n).tolist()
    return reebkit.ReturnSamples(radii, thetas, 1.25, [th + 1.0 for th in thetas],
                                 1.25, [th - 1.0 for th in thetas])


def test_samples_csv_equals_naive_writer(tmp_path):
    # more than three chunks, with signed-zero radii, NaN angles and signed-zero times
    samples = _random_samples(3 * reebkit.cli._CHUNK_ROWS + 5, 4)
    radii = samples.radii[:-3] + [-0.0, 0.0, 0.3]
    thetas = samples.thetas[:-3] + [1.0, math.nan, -0.0]
    fwd = samples.forward_angles[:-3] + [math.nan, 2.0, 0.0]
    bwd = samples.backward_angles[:-3] + [-0.0, math.nan, 3.0]
    mixed = reebkit.ReturnSamples(radii, thetas, math.pi, fwd, -0.0, bwd)
    cases = [samples, mixed, reebkit.ReturnSamples([], [], 1.0, [], 2.0, [])]
    # exactly one chunk and one row past it, with exponent-form and non-finite
    # values in every float column, the last rows of the chunk and the next
    odd = [1e-05, -3e-300, 1e+16, math.inf, -math.inf]
    for n in (reebkit.cli._CHUNK_ROWS, reebkit.cli._CHUNK_ROWS + 1):
        base = _random_samples(n, n)
        columns = [base.radii, base.thetas, base.forward_angles, base.backward_angles]
        columns = [col[:n - 5] + odd[k:] + odd[:k] for k, col in enumerate(columns)]
        for tf, tb in zip(odd, odd[::-1]):
            cases.append(reebkit.ReturnSamples(columns[0], columns[1], tf, columns[2],
                                               tb, columns[3]))
    for case in cases:
        path = tmp_path / "samples.csv"
        reebkit.cli.write_samples_csv(str(path), case)
        assert path.read_bytes() == _naive_samples_csv(case).encode()


def test_samples_csv_at_the_cap_is_written_in_chunks(tmp_path):
    samples = _random_samples(100_000, 5)
    tracemalloc.start()
    try:
        reebkit.cli.write_samples_csv(str(tmp_path / "samples.csv"), samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is about 10 MB, and a writer that joins all its rows peaks near 40 MB
    assert peak < 8e6
    assert (tmp_path / "samples.csv").stat().st_size > 9e6


def test_verify_deterministic_reports(sys_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "--config", sys_file, "--action-bound", "3", "--samples", "6", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_skipped_dynamics(sys_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--config", sys_file, "--action-bound", "2", "--samples", "0",
         "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["gss_sampling"] == {"status": "skipped"}


def test_verify_on_s3_with_or_without_lens_block(s3_file, tmp_path):
    # S^3 is L(1, 1): written with or without the lens block it is one system
    l11 = tmp_path / "l11.json"
    l11.write_text(json.dumps({**ELL_S3, "lens": {"p": 1, "q": 1}}))
    outputs = []
    for config in (s3_file, str(l11)):
        paths = [tmp_path / f"{Path(config).stem}.{ext}" for ext in ("json", "csv", "svg")]
        argv = ["verify", "--config", config, "--action-bound", "4", "--samples", "12",
                "--out", str(paths[0]), "--csv", str(paths[1]), "--svg", str(paths[2])]
        assert main(argv) == 0
        outputs.append([path.read_bytes() for path in paths])
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0][0])
    assert report["all_pass"] and report["binding"]["sl_numeric"] == -1
    assert report["system"]["lens"] == {"p": 1, "q": 1}


def test_s3_is_stored_as_l11():
    assert reebkit.ContactSystem(lens=None) == reebkit.ContactSystem(lens=reebkit.LensParams(1, 1))
    assert reebkit.ContactSystem().lens == reebkit.LensParams(1, 1)
    assert "lens" not in reebkit.system_to_json(reebkit.ContactSystem("round"))
    l11 = reebkit.system_from_json({**ELL_S3, "lens": {"p": 1, "q": 1}})
    assert reebkit.system_to_json(l11) == ELL_S3
    l21 = reebkit.system_from_json(ELL_L21)
    assert reebkit.system_to_json(l21) == ELL_L21


def test_round_is_stored_as_ellipsoid_pi_pi(capsys):
    # the round form is E(pi, pi), whose rates 2 pi / pi are exactly the Hopf rate 2
    e_pi = reebkit.ContactSystem("ellipsoid", a=math.pi, b=math.pi)
    assert reebkit.ContactSystem("round") == e_pi == reebkit.ContactSystem()
    assert reebkit.ContactSystem("round", a=5.0, b=0.1) == e_pi
    assert reebkit.ContactSystem("round").plane_rates() == (2.0, 2.0)
    assert main(["return-map", "--config", '{"family": "round", "a": 5}', "--start", "0.5,0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["system"] == {
        "family": "ellipsoid", "a": 3.14159265359, "b": 3.14159265359}
    for argv in (["index"], ["verify"], ["sigma"]):
        assert main(argv + ["--config", '{"family": "round"}']) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "degenerate: orbit families not isolated for a = b\n"


def test_verify_unwritable_output(sys_file, tmp_path):
    # a path through a regular file cannot be written, root or not
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / "report.json"
    code = main(
        ["verify", "--config", sys_file, "--action-bound", "2", "--samples", "0",
         "--out", str(target)]
    )
    assert code == 1


def test_verify_failed_check_exits_three(sys_file, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    monkeypatch.setattr(reebkit.section, "binding_sl_numeric", lambda p: -999)
    code = main(
        ["verify", "--config", sys_file, "--action-bound", "2", "--samples", "0",
         "--out", str(out)]
    )
    assert code == 3
    report = json.loads(out.read_text())  # report still written
    assert not report["all_pass"]
    assert "sl" in report["violated"]


# ---------------------------------------------------------------------------
# lens / sigma / tree-validate / return-map


def test_lens_p5(capsys):
    assert main(["lens", "--p", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["homeomorphism_classes"] == [[1, 4], [2, 3]]


def test_lens_p7_homotopy_not_homeo(capsys):
    assert main(["lens", "--p", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    qs = data["residues"]
    i1, i2 = qs.index(1), qs.index(2)
    assert data["homotopy_equivalent"][i1][i2] and not data["homeomorphic"][i1][i2]


def test_lens_p2_single_class(capsys):
    assert main(["lens", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["homeomorphism_classes"] == [[1]]


def test_lens_usage_error(capsys):
    assert main(["lens", "--p", "1"]) == 1


def test_sigma_from_catalog_file(tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"entries": [["a", 1.0], ["b", 3.0]], "bound": 10.0}))
    assert main(["sigma", "--catalog", str(cat)]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == pytest.approx(0.5)
    # a config beside the catalog is refused, found or not
    assert main(["sigma", "--catalog", str(cat), "--config", str(tmp_path / "missing.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: argument --config: not allowed with argument --catalog\n"


def test_sigma_from_system(sys_file, capsys):
    assert main(["sigma", "--config", sys_file, "--action-bound", "2.0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma"] > 0
    assert len(data["periods"]) == 6


def test_tree_validate_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"bound": 5.0, "root": {"period": 3.0, "mu": 3}}))
    assert main(["tree-validate", "--tree", str(good), "--sigma", "0.4"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"bound": 5.0,
             "root": {"period": 3.0, "mu": 2, "children": [{"period": 2.8, "mu": 2}]}}
        )
    )
    assert main(["tree-validate", "--tree", str(bad), "--sigma", "0.4"]) == 3


def test_return_map_command(sys_file, capsys):
    code = main(["return-map", "--config", sys_file, "--start", "0.5,0.3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["return_time"] == pytest.approx(math.sqrt(2.0) / 2, abs=1e-9)
    assert data["image"][0] == pytest.approx(0.5, abs=1e-9)


def test_return_map_bad_start(sys_file, capsys):
    assert main(["return-map", "--config", sys_file, "--start", "nope"]) == 1


@pytest.mark.parametrize("tol, code", [("5e-324", 0), ("1e-300", 0), ("1e-7", 1), ("1e300", 1)])
def test_return_map_hostile_tolerances(tol, code, capsys, monkeypatch):
    # the CLI takes no tolerance: every --tol is an unrecognized argument
    cfg = json.dumps({"family": "ellipsoid", "a": 1.0, "b": 1.4, "lens": {"p": 2, "q": 1}})
    argv = ["return-map", "--config", cfg, "--start", "0.5,0.3"]
    assert main(argv + ["--tol", tol]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: unrecognized arguments: --tol {tol}\n"
    assert main(argv) == 0
    cli_time = json.loads(capsys.readouterr().out)["return_time"]
    # the numeric reference scan still takes one: tiny tolerances go straight
    # to the root finder and land on the page at the CLI's return time, to
    # 1e-9; one above the page tolerance refines a crossing that misses the
    # page (code 1)
    sys_ = reebkit.ContactSystem("ellipsoid", a=1.0, b=1.4, lens=reebkit.LensParams(2, 1))
    page = reebkit.build_page(sys_, 0.0)
    level = math.pi
    budget = 2.0 * level / sys_.plane_rates()[1]
    pt0 = reebkit.page_point(page, 0.5, 0.3)

    def numeric_return():
        t_star, pt = reebkit.section._first_crossing(sys_, pt0, 1, level, budget, float(tol))
        try:
            return 0, t_star, reebkit.page_coords(page, pt)
        except reebkit.PreconditionViolation as exc:
            assert str(exc) == "point does not lie on the page"
            return 1, t_star, None

    got = numeric_return()
    assert got[0] == code
    if code == 0:
        assert abs(got[1] - cli_time) < 1e-9
    # the same results as with scipy's brentq
    monkeypatch.setattr(reebkit.section, "brentq", brentq)
    assert numeric_return() == got


@pytest.mark.parametrize("b, p, q", [(1.4, 2, 1), (math.sqrt(2.0), 2, 1), (1.05, 3, 2)])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_return_map_at_the_page_tolerance(b, p, q, direction, capsys, monkeypatch):
    # the return time is level / w2 in closed form and the flowed point lands
    # on the page, within the page tolerance 1e-8, in either direction
    cfg = json.dumps({"family": "ellipsoid", "a": 1.0, "b": b, "lens": {"p": p, "q": q}})
    argv = ["return-map", "--config", cfg, "--start", "0.5,0.3", "--direction", direction]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["return_time"] == float(f"{2.0 * math.pi / (p * (2.0 * math.pi / b)):.12g}")
    # the same bytes as with scipy's brentq inverting the page profile
    monkeypatch.setattr(reebkit.section, "brentq", brentq)
    assert main(argv) == 0
    assert capsys.readouterr() == (out, err)


def test_index_refuses_turns_off_the_class(capsys, monkeypatch):
    original = reebkit.orbits.delta_phi
    monkeypatch.setattr(reebkit.orbits, "delta_phi", lambda path, zeta: original(path, zeta) + 0.3)
    assert main(["index", "--config", json.dumps(ELL_L21), "--k", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: K's lift turns") and err.count("\n") == 1


def test_cli_runs_without_scipy(tmp_path):
    """``import reebkit``, the README commands and both index routes load no scipy module.

    ``path_from_loop`` (the acceptance-corpus generator) takes Magnus steps
    in numpy, so after it and ``cz_spectral`` scipy is still not loaded.
    """
    src = Path(reebkit.__file__).resolve().parents[1]
    l21 = json.dumps(ELL_L21)
    script = textwrap.dedent(f"""
        import json, sys
        import numpy as np
        import reebkit
        from reebkit.cli import main
        runs = [
            ["verify", "--config", {l21!r}, "--samples", "10", "--out", {str(tmp_path / "v.json")!r},
             "--csv", {str(tmp_path / "v.csv")!r}],
            ["index", "--config", {l21!r}, "--k", "5", "--out", {str(tmp_path / "i.json")!r}],
            ["return-map", "--config", {l21!r}, "--start", "0.5,0.3",
             "--out", {str(tmp_path / "r.json")!r}],
            ["lens", "--p", "7", "--out", {str(tmp_path / "l.json")!r}],
        ]
        codes = [main(argv) for argv in runs]
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        loop = reebkit.random_symmetric_loop(np.random.default_rng(0))
        path = reebkit.path_from_loop(loop)
        reebkit.cz_spectral(loop)
        after = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(json.dumps({{"codes": codes, "scipy": loaded, "samples": len(path.mats),
                          "scipy_after_paths": after}}))
    """)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["scipy"] == []
    # the index layer needs no scipy either
    assert result["samples"] == 513 and result["scipy_after_paths"] == []


@pytest.mark.parametrize("level", ["BASIC_FORMAT", "_styles"])
def test_log_variable_naming_no_level_falls_back_to_warning(level, tmp_path):
    # in a fresh process, where basicConfig is not a no-op as it is under pytest
    env = dict(os.environ, PYTHONPATH=str(Path(reebkit.__file__).resolve().parents[1]),
               REEBKIT_LOG=level)
    proc = subprocess.run([sys.executable, "-m", "reebkit.cli", "lens", "--p", "7"], env=env,
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["p"] == 7


_STAGE_NOTES = ("binding invariants", "page construction", "fixed point",
                "catalogued orbits and linking", "return sampling", "area preservation")


def test_log_variable_is_read_on_every_call(tmp_path, caplog, monkeypatch):
    # set_level restores the reebkit logger's level after the test; main sets it on each call
    caplog.set_level(logging.INFO, logger="reebkit")
    argv = ["verify", "--config", json.dumps(ELL_L21), "--samples", "4",
            "--out", str(tmp_path / "report.json")]
    notes = []
    for level in ("INFO", "WARNING", "INFO"):
        monkeypatch.setenv("REEBKIT_LOG", level)
        caplog.clear()
        assert main(argv) == 0
        notes.append([r.getMessage() for r in caplog.records if r.name == "reebkit"])
    assert notes == [list(_STAGE_NOTES), [], list(_STAGE_NOTES)]


@pytest.mark.parametrize("level", ["info", "NOTSET"])
def test_log_variable_prints_stage_notes_in_a_fresh_process(level, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(reebkit.__file__).resolve().parents[1]),
               REEBKIT_LOG=level)
    proc = subprocess.run([sys.executable, "-m", "reebkit.cli", "verify", "--config",
                           json.dumps(ELL_L21), "--samples", "4", "--out", "report.json"],
                          env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0 and proc.stdout == ""
    assert proc.stderr == "".join(f"INFO:reebkit:{note}\n" for note in _STAGE_NOTES)


def _per_process_runs(inputs: Path) -> list:
    """Command lines of every subcommand, usage errors and --help; {out}, {csv}, {svg} are outputs."""
    (inputs / "tree.json").write_text(
        '{"bound": 5, "root": {"period": 3.0, "mu": 2, "children": [{"period": 1.0, "mu": 2}]}}')
    (inputs / "cat.json").write_text('{"entries": [["a", 1.0], ["b", 3.0]], "bound": 10.0}')
    l21 = json.dumps(ELL_L21)
    return [
        ["index", "--config", l21, "--orbit", "Kprime", "--k", "3", "--format", "csv",
         "--out", "{out}"],
        ["verify", "--config", l21, "--samples", "30", "--seed", "2", "--out", "{out}",
         "--csv", "{csv}", "--svg", "{svg}"],
        ["lens", "--p", "5"],
        ["tree-validate", "--tree", str(inputs / "tree.json"), "--sigma", "0.4", "--out", "{out}"],
        # the mutually exclusive group: a cached parser must accept either member next
        ["sigma", "--config", l21, "--action-bound", "2"],
        ["sigma", "--catalog", str(inputs / "cat.json")],
        ["return-map", "--config", l21, "--start", "0.5,0.3", "--direction", "backward"],
        ["index", "--config", l21, "--bogus"],
        ["--help"],
        ["sigma", "--catalog", str(inputs / "cat.json"), "--config", l21],
        [],
    ]


def _outputs(argv: list, rundir: Path) -> tuple[list, list]:
    """argv with its output placeholders pointed into ``rundir``, and those placeholders."""
    names = [a for a in argv if a in ("{out}", "{csv}", "{svg}")]
    return [str(rundir / a.strip("{}")) if a in names else a for a in argv], names


def test_parser_is_built_once_and_runs_as_in_a_fresh_interpreter(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    monkeypatch.delenv("REEBKIT_LOG", raising=False)
    runs = _per_process_runs(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    reebkit.cli._build_parser.cache_clear()
    monkeypatch.setattr(reebkit.cli._Parser, "__init__", counted)
    in_process = []
    for i, argv in enumerate(runs):
        rundir = tmp_path / f"in-{i}"
        rundir.mkdir()
        argv, names = _outputs(argv, rundir)
        code = main(argv)
        out, err = capsys.readouterr()
        files = {n: (rundir / n.strip("{}")).read_bytes() for n in names}
        in_process.append((code, out, err, files))
    # one parser with one subparser per subcommand, all from the first call
    assert built.count("reebkit") == 1 and len(built) == 1 + len(_SUBCOMMAND_ARGV)
    assert [r[0] for r in in_process] == [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1]

    env = dict(os.environ, PYTHONPATH=str(Path(reebkit.__file__).resolve().parents[1]))
    for i, (argv, want) in enumerate(zip(runs, in_process)):
        rundir = tmp_path / f"fresh-{i}"
        rundir.mkdir()
        argv, names = _outputs(argv, rundir)
        proc = subprocess.run([sys.executable, "-m", "reebkit.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        files = {n: (rundir / n.strip("{}")).read_bytes() for n in names}
        assert (proc.returncode, proc.stdout, proc.stderr, files) == want, runs[i]


_SUBCOMMAND_ARGV = {
    "index": ["index", "--config", json.dumps(ELL_L21), "--k", "2"],
    "verify": ["verify", "--config", json.dumps(ELL_L21), "--samples", "0"],
    "lens": ["lens", "--p", "5"],
    "tree-validate": ["tree-validate", "--tree", "tree.json", "--sigma", "0.4"],
    "sigma": ["sigma", "--config", json.dumps(ELL_L21), "--action-bound", "2"],
    "return-map": ["return-map", "--config", json.dumps(ELL_L21), "--start", "0.5,0.3"],
}
# every option changes a result; --help aside, these are all there are.  Only
# verify draws at random, so only verify takes a seed
_OPTIONS = {
    "index": {"--config", "--out", "--orbit", "--k", "--format"},
    "verify": {"--config", "--out", "--seed", "--action-bound", "--samples", "--svg", "--csv"},
    "lens": {"--out", "--p"},
    "tree-validate": {"--out", "--tree", "--sigma"},
    "sigma": {"--config", "--out", "--catalog", "--action-bound"},
    "return-map": {"--config", "--out", "--start", "--direction"},
}


def test_cli_options_are_pinned():
    parser = reebkit.cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert found == _OPTIONS
    assert sum(len(v) for v in found.values()) == 25


_OPTION_INPUTS = {
    "tree.json":
        '{"bound": 5, "root": {"period": 3.0, "mu": 2, "children": [{"period": 1.0, "mu": 2}]}}',
    "bad-tree.json":
        '{"bound": 5, "root": {"period": 3.0, "mu": 2, "children": [{"period": 2.8, "mu": 2}]}}',
    "cat.json": '{"entries": [["a", 1.0], ["b", 3.0]], "bound": 10.0}',
    "cat2.json": '{"entries": [["a", 1.0], ["b", 1.5]], "bound": 10.0}',
}
_L21, _S3 = json.dumps(ELL_L21), json.dumps(ELL_S3)
# (subcommand, option) -> (the rest of the command line, two values of the
# option); None leaves the option out, and relative paths name files in the run's directory
_OPTION_RUNS = {
    ("index", "--config"): (["index"], _L21, _S3),
    ("index", "--out"): (["index", "--config", _L21], None, "out.json"),
    ("index", "--orbit"): (["index", "--config", _L21], "K", "Kprime"),
    ("index", "--k"): (["index", "--config", _L21], "2", "3"),
    ("index", "--format"): (["index", "--config", _L21], "json", "csv"),
    ("verify", "--config"): (["verify", "--samples", "3", "--csv", "s.csv"], _L21, _S3),
    ("verify", "--out"): (["verify", "--config", _L21, "--samples", "0"], None, "out.json"),
    ("verify", "--seed"): (["verify", "--config", _L21, "--samples", "3", "--csv", "s.csv"], "0", "1"),
    ("verify", "--action-bound"): (["verify", "--config", _L21, "--samples", "0"], "2", "5"),
    ("verify", "--samples"): (["verify", "--config", _L21, "--csv", "s.csv"], "2", "3"),
    ("verify", "--svg"): (["verify", "--config", _L21, "--samples", "3"], None, "plot.svg"),
    ("verify", "--csv"): (["verify", "--config", _L21, "--samples", "3"], None, "s.csv"),
    ("lens", "--out"): (["lens", "--p", "5"], None, "out.json"),
    ("lens", "--p"): (["lens"], "5", "7"),
    ("tree-validate", "--out"): (["tree-validate", "--tree", "tree.json", "--sigma", "0.4"],
                                 None, "out.json"),
    ("tree-validate", "--tree"): (["tree-validate", "--sigma", "0.4"], "tree.json", "bad-tree.json"),
    ("tree-validate", "--sigma"): (["tree-validate", "--tree", "tree.json"], "0.4", "3.0"),
    ("sigma", "--config"): (["sigma"], _L21, _S3),
    ("sigma", "--out"): (["sigma", "--config", _L21], None, "out.json"),
    ("sigma", "--catalog"): (["sigma"], "cat.json", "cat2.json"),
    ("sigma", "--action-bound"): (["sigma", "--config", _L21], "2", "3"),
    ("return-map", "--config"): (["return-map", "--start", "0.5,0.3"], _L21, _S3),
    ("return-map", "--out"): (["return-map", "--config", _L21, "--start", "0.5,0.3"],
                              None, "out.json"),
    ("return-map", "--start"): (["return-map", "--config", _L21], "0.5,0.3", "0.4,0.3"),
    ("return-map", "--direction"): (["return-map", "--config", _L21, "--start", "0.5,0.3"],
                                    "forward", "backward"),
}


def _without_echo(text: str, value):
    """``text`` read as a JSON object without the top-level entries that repeat ``value``.

    Text that is not a JSON object is kept as it is.
    """
    try:
        data = json.loads(text)
    except ValueError:
        return text
    if not isinstance(data, dict):
        return data
    try:
        echo = float(value)
    except (TypeError, ValueError):
        echo = value
    return {k: v for k, v in data.items() if isinstance(v, bool) or v != echo}


def test_option_table_covers_every_pinned_option():
    assert set(_OPTION_RUNS) == {(c, o) for c, options in _OPTIONS.items() for o in options}


@pytest.mark.parametrize("command, option", sorted(_OPTION_RUNS), ids="{}".format)
def test_every_option_changes_a_result(command, option, tmp_path, capsys, monkeypatch):
    # an output that differs only where a report repeats the option's value does not count
    base, *values = _OPTION_RUNS[command, option]
    results = []
    for i, value in enumerate(values):
        rundir = tmp_path / str(i)
        rundir.mkdir()
        for name, text in _OPTION_INPUTS.items():
            (rundir / name).write_text(text)
        monkeypatch.chdir(rundir)
        code = main(base + ([] if value is None else [option, value]))
        out, err = capsys.readouterr()
        files = {path.name: _without_echo(path.read_text(), value)
                 for path in sorted(rundir.iterdir()) if path.name not in _OPTION_INPUTS}
        assert code in (0, 3), (value, err)
        results.append((code, _without_echo(out, value), files))
    assert results[0] != results[1]


# every library parameter with a default, as module.function.parameter; a new
# one has to be argued where it is added, and the pin moved with it
_LIBRARY_DEFAULTS = {
    "bookkeeping.parse.depth",
    "cli.main.argv",
    "cli.common.config",
    "geometry.reeb_vector.method",
    "geometry.flow.tol",
    "geometry.flow.method",
    "index.make_rotation_path.n",
    "index.make_hyperbolic_path.n",
    "index.path_from_loop.n",
    "index.random_symmetric_loop.degree",
    "index.random_symmetric_loop.scale",
    "index.random_symmetric_loop.n",
    "index.random_nondegenerate_path.degree",
    "index.random_nondegenerate_path.scale",
    "index.random_nondegenerate_path.n",
    "index.spectrum.window",
    "index.rotation_number_with_error.iterates",
    "index.SymmetricLoop.constant.n",
    "integrate.dopri45.rtol",
    "integrate.dopri45.atol",
    "integrate.dopri45.project",
    "integrate.dopri45.max_step",
    "knots.pdisk_arrays.phase",
    "orbits.orbit_index.k",
    "section.build_page.phase",
    "section.return_map.direction",
    "section.verify_gss_conditions.n_samples",
    "section.verify_gss_conditions.seed",
}


def _library_defaults() -> list:
    """(module.function.parameter) of every def and lambda in the package with a default."""
    found = []
    for path in sorted(Path(reebkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            fn: f"{cls.name}.{fn.name}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = owner.get(node, getattr(node, "name", "<lambda>"))
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] if args.defaults else []
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [f"{path.stem}.{name}.{a.arg}" for a in named]
    return found


def test_library_defaults_are_pinned():
    found = _library_defaults()
    assert len(found) == len(set(found)) == 28
    assert set(found) == _LIBRARY_DEFAULTS


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c in _SUBCOMMAND_ARGV for o in (["--jobs", "2"], ["--tol", "1e-10"])]
    # the deterministic subcommands take no seed
    + [(c, ["--seed", "3"]) for c in _SUBCOMMAND_ARGV if c != "verify"]
    + [("lens", ["--config", json.dumps(ELL_L21)]),
       ("tree-validate", ["--config", json.dumps(ELL_L21)]),
       ("sigma", ["--catalog", "c.json"]),
       # every page returns alike, so the return map reads its image on the page at phase 0
       ("return-map", ["--phase", "0.3"]),
       # a catalog file carries its own bound; the file is not read
       (["sigma", "--catalog", "c.json"], ["--action-bound", "3"])],
    ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"),
)
def test_options_without_effect_exit_usage(command, option, capsys):
    base = _SUBCOMMAND_ARGV[command] if isinstance(command, str) else command
    assert main(base + option) == 1
    out, err = capsys.readouterr()
    if option[0] == "--catalog":  # sigma's periods come from --config or --catalog, not both
        message = "argument --catalog: not allowed with argument --config"
    elif option[0] == "--action-bound":
        message = "--action-bound bounds --config; a catalog has its own bound"
    else:
        message = f"unrecognized arguments: {' '.join(option)}"
    assert out == "" and err == f"error: {message}\n"


def _no_sampling(*_args, **_kwargs):
    raise AssertionError("return samples were drawn")


class _ConfigFile(str):
    """An argv entry that the test writes to a file and replaces by the file's path."""


_NESTED_CONFIG = '{"family": "ellipsoid", "a": ' + "[" * 2000 + "]" * 2000 + "}"
_HUGE_ORDER = json.dumps({**ELL_L21, "lens": {"p": 10**400 + 1, "q": 1}})


@pytest.mark.parametrize(
    "argv",
    [
        # json.loads reads Infinity as a float
        ["index", "--config",
         '{"family": "ellipsoid", "a": 1.0, "b": Infinity, "lens": {"p": 2, "q": 1}}'],
        ["index", "--config",
         '{"family": "ellipsoid", "a": 1.0, "b": 1.4142135623730951, "lens": {"p": 2.7, "q": 1}}'],
        # the return scan is refused at the fixed point, before any sampling
        ["verify", "--config",
         '{"family": "ellipsoid", "a": 1.0, "b": 1e6, "lens": {"p": 2, "q": 1}}',
         "--samples", "5"],
        # return scans are refused beyond a step ceiling, and the linearized
        # flow when it turns more than pi/2 per interval of its 512-interval grid
        ["return-map", "--config", '{"family": "ellipsoid", "a": 1, "b": 1e6}',
         "--start", "0.5,0"],
        ["index", "--config", '{"family": "ellipsoid", "a": 1, "b": 1e6}',
         "--orbit", "Kprime", "--k", "1"],
        # non-finite numbers on the return-map path; --tol and --phase are no options at all
        ["return-map", "--config", json.dumps(ELL_L21), "--start", "0.5,0.3", "--tol", "nan"],
        ["return-map", "--config", json.dumps(ELL_L21), "--start", "0.5,0.3", "--tol", "inf"],
        ["return-map", "--config", json.dumps(ELL_L21), "--start", "0.5,nan"],
        ["return-map", "--config", json.dumps(ELL_L21), "--start", "0.5,inf"],
        ["return-map", "--config", json.dumps(ELL_L21), "--start", "0.5,0.3", "--phase", "nan"],
        ["return-map", "--config", json.dumps(ELL_L21), "--start", "0.5,0.3", "--phase", "inf"],
        # the catalog is refused up front when the action bound is not finite or too large
        ["verify", "--config", json.dumps(ELL_L21), "--action-bound", "nan"],
        ["verify", "--config", json.dumps(ELL_L21), "--action-bound", "inf"],
        ["verify", "--config", json.dumps(ELL_L21), "--action-bound", "1e9"],
        ["sigma", "--config", json.dumps(ELL_L21), "--action-bound", "1e9"],
        ["verify", "--config", json.dumps(ELL_L21), "--samples", "-3"],
        ["verify", "--config", json.dumps(ELL_L21), "--samples", "100001"],
        # numpy's generators take no negative seed
        ["verify", "--config", json.dumps(ELL_L21), "--samples", "5", "--seed", "-1"],
        # no index is read beyond iterate 10 000, and --k must be positive
        ["index", "--config", json.dumps(ELL_S3), "--orbit", "K", "--k", "10001"],
        ["index", "--config", json.dumps(ELL_S3), "--orbit", "K", "--k", "1000000000"],
        ["index", "--config", json.dumps(ELL_S3), "--orbit", "K", "--k", "0"],
        # the classification tables are capped at p = 200
        ["lens", "--p", "100000"],
        # argparse's usage errors say what is wrong on one line
        ["index", "--config", json.dumps(ELL_L21), "--bogus"],
        ["index", "--config", json.dumps(ELL_L21), "--k", "x"],
        ["index", "--config", json.dumps(ELL_L21), "--format", "xml"],
        ["index", "--k", "2"],
        # configs of the wrong shape
        ["sigma", "--config", '{"a": 1, "b": 1.4}', "--action-bound", "3"],
        ["sigma", "--config", '{"family": "ellipsoid", "a": 1, "b": 1.4, "lens": [2, 1]}'],
        ["sigma", "--config", '{"family": "ellipsoid", "a": 1, "b": 1.4, "lens": {"p": 2}}'],
        ["index", "--config", '{"family": "ellipsoid", "a": 1, "b": 1.4, "lens": "L(2,1)"}'],
        ["index", "--config", '{"family": "ellipsoid", "a": 1, "b": 1.4, "lens": true}'],
        ["index", "--config", '{"family": "ellipsoid", "a": 1, "b": 1.4, "lens": 2}'],
        ["index", "--config", '{"family": "ellipsoid", "a": 1, "b": 1.4'],
        ["index", "--config", '{"family": "ellipsoid", "a": 1' + "0" * 400 + ', "b": 1.4}'],
        # capacities below about 3.5e-308, whose plane rate 2 pi / b is infinite
        ["index", "--config", json.dumps({**ELL_L21, "b": 1e-309})],
        ["verify", "--config", json.dumps({**ELL_L21, "b": 1e-309})],
        ["sigma", "--config", json.dumps({**ELL_L21, "b": 5e-324})],
        ["return-map", "--config", json.dumps({**ELL_S3, "b": 5e-324}), "--start", "0.5,0.3"],
        # configs nested past the decoder's recursion limit, inline and in a file
        ["index", "--config", _NESTED_CONFIG],
        ["index", "--config", _ConfigFile(_NESTED_CONFIG)],
        # a lens order beyond the float range
        ["index", "--config", _HUGE_ORDER],
        ["verify", "--config", _HUGE_ORDER],
        ["return-map", "--config", _HUGE_ORDER, "--start", "0.5,0.3"],
        ["sigma", "--config", _HUGE_ORDER],
    ],
    ids=["infinite-capacity", "fractional-lens-order", "huge-capacity-verify",
         "huge-capacity-return-map", "huge-capacity-index",
         "nan-tol", "infinite-tol", "nan-start-angle", "infinite-start-angle",
         "nan-phase", "infinite-phase",
         "nan-action-bound", "infinite-action-bound", "huge-action-bound",
         "huge-action-bound-sigma", "negative-samples", "too-many-samples", "negative-seed",
         "iterate-above-bound", "huge-iterate", "zero-iterate", "huge-lens-order",
         "unknown-flag", "non-integer-iterate", "unknown-format", "missing-config",
         "no-family", "list-lens", "lens-without-q", "string-lens", "true-lens", "number-lens",
         "truncated-json", "capacity-beyond-float", "tiny-capacity-index", "tiny-capacity-verify",
         "subnormal-capacity-sigma", "subnormal-capacity-return-map",
         "nested-inline-config", "nested-config-file", "huge-order-index", "huge-order-verify",
         "huge-order-return-map", "huge-order-sigma"],
)
def test_hostile_config_exits_usage(argv, tmp_path, capsys, monkeypatch):
    # every refusal comes before any return is sampled
    monkeypatch.setattr(reebkit.section, "sample_starts", _no_sampling)
    path = tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, _ConfigFile):
            path.write_text(arg)
    argv = [str(path) if isinstance(arg, _ConfigFile) else arg for arg in argv]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_at_the_sample_cap_exits_zero(tmp_path):
    # the cap itself is allowed; one sample more is refused above
    csv = tmp_path / "samples.csv"
    assert main(["verify", "--config", json.dumps(ELL_L21), "--samples", "100000",
                 "--out", str(tmp_path / "report.json"), "--csv", str(csv)]) == 0
    assert len(csv.read_text(encoding="utf-8").splitlines()) == 100_001


def _nested_tree(depth):
    vertex = '{"period": 1, "mu": 2, "children": ['
    return '{"bound": 9, "root": ' + vertex * depth + '{"period": 1, "mu": 2}' + "]}" * depth + "}"


@pytest.mark.parametrize("command", ["tree-validate", "sigma"])
@pytest.mark.parametrize(
    "content",
    ["not json", '{"entries": [["a", 1.0]]}', "[1, 2]",
     '{"bound": 1, "root": {"period": "x", "mu": 2}}', _nested_tree(300), _nested_tree(600),
     # json.loads reads NaN and Infinity as floats; each shape serves both commands
     '{"bound": Infinity, "root": {"period": 1, "mu": 2}, "entries": [["a", 1.0]]}',
     '{"bound": 5, "root": {"period": NaN, "mu": 2}, "entries": [["a", NaN], ["b", 1.0]]}',
     '{"bound": 5, "root": {"period": 3, "mu": 2, "children": [{"period": 1, "mu": 2, '
     '"parent_edge_period": Infinity}]}}',
     '{"bound": 5, "root": {"period": "1", "mu": 2}, "entries": [["a", 1.0], ["b", "2.5"]]}',
     '{"bound": true, "root": {"period": 1, "mu": 2}, "entries": [["a", 1.0]]}',
     '{"bound": 5, "root": {"period": 1, "mu": 2.9}}',
     '{"bound": 5, "root": {"period": 1, "mu": "3"}}',
     '{"bound": 5, "root": {"period": 1, "mu": true}}',
     '{"bound": 5, "root": {"period": true, "mu": 2}, "entries": [["a", true], ["b", 2.5]]}',
     '{"bound": "3", "root": {"period": 1, "mu": 2}, "entries": [["a", 1.0]]}',
     # an integer beyond the float range, which float() cannot convert
     '{"bound": 5, "root": {"period": 1' + "0" * 400 + ', "mu": 2}, "entries": [["a", 1'
     + "0" * 400 + ']]}'],
    ids=["not-json", "no-bound", "list", "non-numeric-period", "nested-300", "nested-600",
         "infinite-bound", "nan-period", "infinite-edge-period", "string-period", "boolean-bound",
         "fractional-mu", "string-mu", "boolean-mu", "boolean-period", "string-bound",
         "huge-integer-period"],
)
def test_malformed_tree_and_catalog_files_exit_usage(command, content, tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(content)
    flag = ["--tree", str(path), "--sigma", "0.1"] if command == "tree-validate" else ["--catalog", str(path)]
    start = time.perf_counter()
    assert main([command] + flag) == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_sigma_that_is_not_finite_and_positive_exits_usage(sigma, tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text('{"bound": 5, "root": {"period": 3, "mu": 3}}')
    assert main(["tree-validate", "--tree", str(path), f"--sigma={sigma}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: sigma must be positive") and err.count("\n") == 1


_JSON_SCALARS = st.one_of(
    st.floats(),  # inf and nan included; json writes them as Infinity and NaN
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
_HOSTILE = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))


@st.composite
def _configs(draw):
    """A plausible config with some of a, b, lens, p and q replaced by hostile values."""
    p = draw(st.integers(1, 6))
    lens = {"p": p, "q": draw(st.sampled_from([q for q in range(1, p + 1) if math.gcd(p, q) == 1]))}
    config = {"family": draw(st.sampled_from(["ellipsoid", "round", "other"])),
              "a": draw(st.floats(0.3, 3.0)), "b": draw(st.floats(0.3, 3.0)), "lens": lens}
    for key in ("a", "b", "lens", "p", "q"):
        if draw(st.integers(0, 4)) == 0:
            (lens if key in ("p", "q") else config)[key] = draw(_HOSTILE)
    if draw(st.booleans()):
        del config["lens"]
    return config


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text: str):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_configs())
def test_fuzzed_configs_exit_with_one_line(config, capsys):
    cfg = json.dumps(config)
    for argv in (
        ["sigma", "--action-bound", "3"],
        ["index", "--k", "2"],
        ["index", "--k", "2", "--orbit", "Kprime"],
        ["return-map", "--start", "0.5,0.3"],
        ["verify", "--samples", "3"],
    ):
        code = main(argv + ["--config", cfg])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, cfg)
        assert "Traceback" not in err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, cfg, err)
        if code in (0, 3):
            _strict_json(out)


# hostile command-line values: non-finite, huge, tiny, negative, empty and not numbers
_HOSTILE_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e309", "-1e309", "NaN", "Infinity"]),
    st.sampled_from(["5e-324", "0", "-0", "-1", "1e9", "9" * 30, "", "x", "1,2", "0x10"]),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=4),
)


def _maybe_hostile(valid, hostile):
    """``valid`` three times in four, else ``hostile``."""
    return st.integers(0, 3).flatmap(lambda i: hostile if i == 0 else valid)


def _token(valid):
    """A command-line value: one drawn from ``valid`` (a strategy of strings) or a hostile one."""
    return _maybe_hostile(valid, _HOSTILE_TOKENS)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _file_number(lo, hi):
    return _maybe_hostile(st.floats(lo, hi), _JSON_SCALARS)


_VERTICES = st.recursive(
    st.fixed_dictionaries({"period": _file_number(0.1, 5.0),
                           "mu": _maybe_hostile(st.integers(0, 4), _JSON_SCALARS)},
                          optional={"parent_edge_period": _file_number(0.1, 5.0)}),
    lambda children: st.fixed_dictionaries({"period": _file_number(0.1, 5.0), "mu": st.integers(0, 4),
                                            "children": st.lists(children, max_size=2)}),
    max_leaves=3,
)
# file contents, written with NaN and Infinity where the values are so
_TREES = _maybe_hostile(st.fixed_dictionaries({"root": _VERTICES, "bound": _file_number(0.1, 9.0)}),
                        _HOSTILE).map(json.dumps)
_CATALOGS = _maybe_hostile(
    st.fixed_dictionaries({"entries": st.lists(st.tuples(st.text(max_size=2), _file_number(0.1, 5.0)),
                                               max_size=3),
                           "bound": _file_number(0.1, 9.0)}),
    _HOSTILE,
).map(json.dumps)


@st.composite
def _fuzzed_runs(draw):
    """One run of each subcommand, (argv, file content or None), with hostile values drawn in."""
    cfg = ["--config", json.dumps(ELL_L21)]
    start = f"{draw(_token(_floats(0.01, 0.99)))},{draw(_token(_floats(-10.0, 10.0)))}"
    return [
        (["index", *cfg, "--orbit", draw(st.sampled_from(["K", "Kprime"])),
          f"--k={draw(_token(st.integers(1, 50).map(str)))}"], None),
        (["return-map", *cfg, f"--start={start}"], None),
        (["verify", *cfg, f"--samples={draw(_token(st.integers(0, 50).map(str)))}",
          f"--action-bound={draw(_token(_floats(0.1, 10.0)))}",
          f"--seed={draw(_token(st.integers(-5, 50).map(str)))}"], None),
        # a table of p costs O(p^2): small p keep the test fast, the hostile ones pass the cap
        (["lens", f"--p={draw(_token(st.integers(-2, 40).map(str)))}"], None),
        (["sigma", *cfg, f"--action-bound={draw(_token(_floats(0.1, 50.0)))}"], None),
        (["sigma", "--catalog"], draw(_CATALOGS)),
        (["tree-validate", f"--sigma={draw(_token(_floats(0.01, 2.0)))}", "--tree"], draw(_TREES)),
    ]


@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(runs=_fuzzed_runs())
def test_fuzzed_arguments_exit_with_one_line(runs, tmp_path, capsys):
    for argv, content in runs:
        if content is not None:
            path = tmp_path / "data.json"
            path.write_text(content)
            argv = argv + [str(path)]
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 5.0, argv
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (argv, content)
        assert "Traceback" not in err
        if code in (1, 2):
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, content, err)
        else:
            # a verification failure writes its report and no message
            assert err == "", (argv, content, err)
            _strict_json(out)


def test_huge_iterate_named_and_refused_before_linearizing(capsys, linearize_calls):
    argv = ["index", "--config", json.dumps(ELL_S3), "--orbit", "K", "--k", "1000000000"]
    assert main(argv) == 1
    assert "1000000000" in capsys.readouterr().err
    assert linearize_calls == []


@pytest.mark.parametrize("b", [100.0, 117.3, 126.0, 126.5, 127.0, 128.0, 129.0, 250.0,
                               400.37, 1e3, 1e4, 1e6])
@pytest.mark.parametrize("lens", [None, {"p": 2, "q": 1}], ids=["S3", "L21"])
def test_index_at_large_capacity_ratio_is_closed_form_or_refused(lens, b, capsys):
    # K^k turns k (1 + a/b) / p times and K'^k turns k (1 + b/a) / p times;
    # past b/a = 127 the 512-interval grid cannot resolve K' and the run is
    # refused, never answered with another number
    config = {"family": "ellipsoid", "a": 1.0, "b": b}
    if lens:
        config["lens"] = lens
    p = lens["p"] if lens else 1
    for orbit, ratio in (("K", 1.0 / b), ("Kprime", b)):
        code = main(["index", "--config", json.dumps(config), "--orbit", orbit, "--k", "4"])
        out, err = capsys.readouterr()
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            continue
        assert code == 0 and err == ""
        for row in json.loads(out)["rows"]:
            x = row["k"] * (1.0 + ratio) / p
            assert row["rho"] == pytest.approx(x, rel=1e-9)
            if x == round(x):
                # resonant: the row is flagged and its index sits at 2x or beside it,
                # on the side of the integer the read rho falls
                assert row["degenerate"] and abs(row["mu_cz"] - 2 * x) <= 1
            else:
                assert row["mu_cz"] == 2 * math.floor(x) + 1


# ---------------------------------------------------------------------------
# long iterates are read off the lift, not refused


def test_index_long_iterate_matches_closed_form(capsys):
    assert main(["index", "--config", json.dumps(ELL_S3), "--orbit", "K", "--k", "20"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["k"] for r in rows] == list(range(1, 21))
    for r in rows:
        x = r["k"] * (1.0 + 1.0 / math.sqrt(2.0))
        assert r["mu_cz"] == 2 * math.floor(x) + 1
        assert r["rho"] == pytest.approx(x, abs=1e-9)
    assert (rows[-1]["mu_cz"], rows[-1]["rho"]) == (69, 34.1421356237)


def test_verify_long_action_bound_passes(capsys):
    start = time.perf_counter()
    assert main(["verify", "--config", json.dumps(ELL_L21), "--action-bound", "40"]) == 0
    assert time.perf_counter() - start < 5.0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] and len(report["pstar"]["orbits"]) == 136
