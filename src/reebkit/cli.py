"""Command-line front end.

Subcommands: ``index``, ``verify``, ``lens``, ``tree-validate``, ``sigma``,
``return-map``.  Exit codes: 0 success, 1 usage or configuration error,
2 degenerate input, 3 verification failure.  All floating point output is
rounded to 12 significant digits and reports are byte-stable for a fixed
configuration (and, for ``verify``, seed).  Every option changes a result:
runs are serial and every return takes its closed-form time and turns
every page alike, so there is no worker count, no tolerance and no page
phase to set, and only ``verify``, which draws its return samples at
random, takes a seed.  The ``REEBKIT_LOG``
environment variable, read on every call, sets the logging level.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys as _sys
from pathlib import Path

from .bookkeeping import PeriodCatalog, sigma_gap, tree_from_json, validate_tree, violations_json
from .errors import DegenerateInput, PreconditionViolation, ReebkitError, StructuralError
from .geometry import ContactSystem, system_from_json, system_to_json
from .knots import classification_tables
from .orbits import catalog, index_table, principal_orbits
from .section import ReturnSamples, build_page, return_map, verify_gss_conditions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line saying what is wrong; exit 1, not argparse's 2
        _sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        _sys.stdout.write(text)


def _emit(obj, out: str | None) -> None:
    _write(json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n", out)


def _read_file(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return Path(path).read_text(encoding="utf-8")


def _load_json(spec: str, what: str, build, inline: bool):
    """``build`` applied to the JSON of a file, or of ``spec`` itself if ``inline``.

    Every input from outside the program is decoded here; any wrong shape
    is a ``StructuralError``.
    """
    source, text = (f"inline {what}", spec) if inline else (f"{what} file {spec}", _read_file(spec, what))
    try:
        return build(json.loads(text))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise StructuralError(f"malformed {source}: {type(exc).__name__}: {exc}") from exc


def _load_system(spec: str) -> ContactSystem:
    return _load_json(spec, "config", system_from_json, spec.strip().startswith("{"))


def _select_orbit(sys_: ContactSystem, name: str):
    K, Kp = principal_orbits(sys_)
    table = {"K": K, "k": K, "K'": Kp, "Kprime": Kp, "kprime": Kp}
    if name not in table:
        raise PreconditionViolation(f"unknown orbit selector {name!r}; use K or Kprime")
    return table[name]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_index(args) -> int:
    if args.k < 1:
        raise PreconditionViolation(f"--k must be >= 1, got {args.k}")
    sys_ = _load_system(args.config)
    orbit = _select_orbit(sys_, args.orbit)
    rows = index_table(orbit, args.k)
    payload = {
        "system": system_to_json(sys_),
        "orbit": orbit.label,
        "prime_period": orbit.prime_period,
        "rows": rows,
    }
    if args.format == "csv":
        lines = ["k,mu_cz,rho,degenerate,convention"]
        for r in rows:
            lines.append(
                f"{r['k']},{r['mu_cz']},{r['rho']:.12g},{int(r['degenerate'])},{r['convention']}"
            )
        _write("\n".join(lines) + "\n", args.out)
    else:
        _emit(payload, args.out)
    return EXIT_OK


# rows that the sample writers join before each write, so that a file at the
# sample cap is never built whole in memory
_CHUNK_ROWS = 4096


def _write_rows(fh, rows) -> None:
    """Write the strings of ``rows`` to ``fh``, ``_CHUNK_ROWS`` at a time."""
    chunk = []
    for row in rows:
        chunk.append(row)
        if len(chunk) == _CHUNK_ROWS:
            fh.write("".join(chunk))
            chunk.clear()
    fh.write("".join(chunk))


def write_svg_scatter(path: str, samples: ReturnSamples) -> None:
    """Hand-rolled scatter plot of (start, forward image) pairs in page coordinates.

    An image lies at its start's radius.  The circles are written
    ``_CHUNK_ROWS`` samples at a time.
    """
    size = 500
    c = size / 2
    scale = 0.46 * size

    def xy(r, th):
        return c + scale * r * math.cos(th), c - scale * r * math.sin(th)

    def circles():
        for r, th, fth in zip(samples.radii, samples.thetas, samples.forward_angles):
            x0, y0 = xy(r, th)
            x1, y1 = xy(r, fth)
            yield (
                f'<circle cx="{x0:.2f}" cy="{y0:.2f}" r="2.4" fill="#1f77b4" fill-opacity="0.8"/>\n'
                f'<circle cx="{x1:.2f}" cy="{y1:.2f}" r="2.4" fill="#d62728" fill-opacity="0.8"/>\n'
            )

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'
            f'<rect width="{size}" height="{size}" fill="white"/>\n'
            f'<circle cx="{c}" cy="{c}" r="{scale}" fill="none" stroke="#444" stroke-width="1"/>\n'
        )
        _write_rows(fh, circles())
        fh.write("</svg>\n")


def write_samples_csv(path: str, samples: ReturnSamples) -> None:
    """The return samples as CSV, one row per start, each float with 12 significant digits.

    Each direction's return time is formatted once per file, into the row
    template, and each start radius once, for the start and both images,
    since every return keeps the radius.  A chunk of at most ``_CHUNK_ROWS``
    rows is one ``%`` of the template repeated over the chunk, on the
    chunk's values interleaved in row order; ``"%.12g" % x`` writes the
    digits of ``f"{x:.12g}"``.
    """
    row = (f"%s,%.12g,{samples.forward_time:.12g},%s,%.12g,"
           f"{samples.backward_time:.12g},%s,%.12g\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "start_r,start_theta,forward_time,forward_r,forward_theta,"
            "backward_time,backward_r,backward_theta\n"
        )
        for lo in range(0, len(samples), _CHUNK_ROWS):
            chunk = slice(lo, lo + _CHUNK_ROWS)
            radii = samples.radii[chunk]
            values = [None] * (6 * len(radii))
            values[0::6] = values[2::6] = values[4::6] = (
                "%.12g\n" * len(radii) % tuple(radii)).splitlines()
            values[1::6] = samples.thetas[chunk]
            values[3::6] = samples.forward_angles[chunk]
            values[5::6] = samples.backward_angles[chunk]
            fh.write(row * len(radii) % tuple(values))


def _cmd_verify(args) -> int:
    sys_ = _load_system(args.config)
    report, samples = verify_gss_conditions(
        sys_, C=args.action_bound, n_samples=args.samples, seed=args.seed
    )
    _emit(report, args.out)
    if args.csv:
        write_samples_csv(args.csv, samples)
    if args.svg:
        write_svg_scatter(args.svg, samples)
    return EXIT_OK if report["all_pass"] else EXIT_VERIFICATION


def _cmd_lens(args) -> int:
    # the tables hold p^2 entries; the cap keeps the report small
    if not 2 <= args.p <= 200:
        raise PreconditionViolation(f"lens classification needs 2 <= p <= 200, got {args.p}")
    _emit(classification_tables(args.p), args.out)
    return EXIT_OK


def _cmd_tree_validate(args) -> int:
    tree = _load_json(args.tree, "tree", tree_from_json, False)
    ok, violations = validate_tree(tree, args.sigma)
    _emit(
        {
            "pass": ok,
            "sigma": args.sigma,
            "violations": violations_json(violations),
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_sigma(args) -> int:
    if args.catalog:
        if args.action_bound is not None:
            raise PreconditionViolation("--action-bound bounds --config; a catalog has its own bound")
        cat = _load_json(
            args.catalog, "catalog",
            lambda data: PeriodCatalog(entries=data["entries"], bound=data["bound"]), False,
        )
    elif args.config:
        sys_ = _load_system(args.config)
        bound = 5.0 if args.action_bound is None else args.action_bound
        orbits = catalog(sys_, bound)
        cat = PeriodCatalog(
            entries=[(f"{o.label}^{o.multiplicity}", o.period) for o in orbits],
            bound=bound,
        )
    else:
        raise PreconditionViolation("sigma needs --catalog or --config")
    _emit(
        {
            "sigma": sigma_gap(cat),
            "bound": cat.bound,
            "periods": [{"label": l, "period": p} for l, p in cat.entries],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_return_map(args) -> int:
    sys_ = _load_system(args.config)
    page = build_page(sys_)
    try:
        r_str, th_str = args.start.split(",")
        start = (float(r_str), float(th_str))
    except ValueError as exc:
        raise PreconditionViolation("--start must be 'r,theta'") from exc
    rec = return_map(page, start, args.direction)
    _emit(
        {
            "system": system_to_json(sys_),
            "phase": page.phase,
            "start": list(start),
            "direction": args.direction,
            "return_time": rec.return_time,
            "image": list(rec.image),
        },
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared by every later one.

    No input changes it, and ``parse_args`` returns a fresh namespace on each
    call, so no parse carries state into the next.  It is never built at
    import time: ``import reebkit.cli`` leaves the cache empty.
    """
    parser = _Parser(prog="reebkit", description=__doc__.replace("``", ""))
    sub = parser.add_subparsers(dest="command")

    config_help = "system JSON path or inline JSON"

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help=config_help)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("index", help="Conley-Zehnder index table of a principal orbit")
    common(p)
    p.add_argument("--orbit", default="K", help="K or Kprime")
    p.add_argument("--k", type=int, default=3, help="largest iterate")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("verify", help="verify the global surface of section conditions")
    common(p)
    p.add_argument("--action-bound", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed of the random return starts")
    p.add_argument("--svg", default=None, help="write a scatter plot of the return samples")
    p.add_argument("--csv", default=None, help="write the return samples as CSV")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("lens", help="lens-space classification tables")
    common(p, config=False)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_lens)

    p = sub.add_parser("tree-validate", help="validate a bubbling-off tree")
    common(p, config=False)
    p.add_argument("--tree", required=True, help="tree JSON file")
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(fn=_cmd_tree_validate)

    p = sub.add_parser("sigma", help="period-gap constant of a catalog")
    common(p, config=False)
    # the periods come from a system or from a catalog file, never both
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help=config_help)
    source.add_argument("--catalog", default=None, help="period catalog JSON file")
    p.add_argument("--action-bound", type=float, default=None,
                   help="bound on the periods of --config (default 5.0); refused with --catalog")
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("return-map", help="one application of the page return map")
    common(p)
    p.add_argument("--start", required=True, help="page coordinates 'r,theta'")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.set_defaults(fn=_cmd_return_map)

    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    ``REEBKIT_LOG`` is read on every call and sets the level of the
    ``reebkit`` logger; the stderr handler and its format are set up once
    per process.  The parser is built on the first call (``_build_parser``).
    """
    # getLevelName maps a level name to its number and any other string to a string
    level = logging.getLevelName(os.environ.get("REEBKIT_LOG", "WARNING").upper())
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig()  # a no-op once the root logger has a handler
    # NOTSET would defer to the root logger's WARNING; 1 lets every record
    # through, as NOTSET set on the root did
    logging.getLogger("reebkit").setLevel(max(level, 1))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(_sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except DegenerateInput as exc:
        _sys.stderr.write(f"degenerate: {exc}\n")
        return EXIT_DEGENERATE
    except (OSError, ReebkitError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
