"""Command-line front end.

Subcommands: ``run`` (scenario registry), ``list``, and direct access to
module operations (``trace``, ``returns``, ``spectrum``, ``check``).
Exit codes: 0 success, 2 configuration problem, 3 computation error,
4 scenario verdict mismatch. Output files are written atomically
(temp file + rename); the default output directory comes from --out,
then the COCYCLELAB_OUT environment variable, then ./cocyclelab-out.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import sys
import tempfile

from . import scenarios, textform
from .cocycles import (
    _FIRST_CHECKPOINT,
    check_positivity_condition,
    geometric_checkpoints,
    lyapunov_trace,
)
from .errors import CocycleLabError, ConfigError
from .returns import return_formula_estimate, select_marker
from .spectrum import _beta_grid, spectrum_curve, spectrum_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_VERDICT = 4


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out_dir(args) -> str:
    out = args.out or os.environ.get("COCYCLELAB_OUT") or "cocyclelab-out"
    os.makedirs(out, exist_ok=True)
    return out


def _load(path: str, block: str):
    """The object a textform file of the named block describes."""
    try:
        with open(path) as handle:
            name, data = textform.loads(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if name != block:
        raise ConfigError(f"{path}: expected a {block!r} block, found {name!r}")
    return scenarios.READERS[block](data)


def _parse_overrides(items) -> dict:
    overrides = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, raw = item.partition("=")
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key.strip()] = value
    return overrides


# --- subcommand bodies ------------------------------------------------------


def _cmd_run(args) -> int:
    doc, files, passed = scenarios.run_scenario(args.scenario, _parse_overrides(args.override))
    out = _out_dir(args)
    for fname, content in files.items():
        _atomic_write(os.path.join(out, fname), content)
    _atomic_write(os.path.join(out, "verdict.json"), textform.json_text(doc))
    print(
        f"scenario={doc['scenario']} expected={doc['expected']} "
        f"observed={doc['observed']} -> {'PASS' if passed else 'MISMATCH'} (artifacts in {out})"
    )
    return EXIT_OK if passed else EXIT_VERDICT


def _cmd_list(args) -> int:
    table = scenarios.registry_table()
    if args.json:
        print(textform.json_text({"scenarios": table}), end="")
        return EXIT_OK
    width = max(len(row["name"]) for row in table)
    for row in table:
        print(f"{row['name']:<{width}}  {row['expected']:<15} {row['citation']}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    spec, source = _load(args.cocycle, "cocycle"), _load(args.source, "source")
    if args.checkpoints:
        try:
            cps = [int(tok) for tok in args.checkpoints.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--checkpoints must be comma-separated integers: {exc}") from exc
    else:
        cps = geometric_checkpoints(_FIRST_CHECKPOINT, args.horizon).tolist()
    trace = lyapunov_trace(spec, source, cps)
    out = _out_dir(args)
    _atomic_write(os.path.join(out, "trace.csv"), trace.to_csv())
    print(
        f"n={int(trace.checkpoints[-1])} exponent={float(trace.exponents[-1])!r} "
        f"slope_estimate={trace.slope_estimate()!r} zero_index={trace.zero_index}"
    )
    return EXIT_OK


def _cmd_returns(args) -> int:
    spec, source = _load(args.cocycle, "cocycle"), _load(args.source, "source")
    prefix = source.prefix(args.n + spec.depth - 1)
    selection = select_marker(spec, prefix, k0=args.k0, max_ell=args.max_ell)
    estimate = return_formula_estimate(spec, prefix, selection, cutoff=args.cutoff)
    out = _out_dir(args)
    _atomic_write(os.path.join(out, "returns.json"), textform.json_text(estimate))
    print(
        f"estimate={estimate.estimate!r} band={estimate.correction_band!r} "
        f"long_mass={estimate.long_mass!r} returns={estimate.i}"
    )
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    wspec = _load(args.spec, "weighted_average")
    betas = _beta_grid(args.beta_min, args.beta_max, args.beta_count)
    points = spectrum_curve(wspec, betas, horizon=args.horizon)
    out = _out_dir(args)
    _atomic_write(os.path.join(out, "spectrum.csv"), spectrum_to_csv(points))
    print(f"wrote {len(points)} spectrum points to {os.path.join(out, 'spectrum.csv')}")
    return EXIT_OK


def _cmd_check(args) -> int:
    spec, source = _load(args.cocycle, "cocycle"), _load(args.source, "source")
    prefix = source.prefix(args.n)
    witness = check_positivity_condition(
        spec, prefix, max_ell=args.max_ell, start=args.start, exhaustive=args.exhaustive
    )
    doc = scenarios.witness_doc(witness)
    _atomic_write(os.path.join(_out_dir(args), "check.json"), textform.json_text({"witness": doc}))
    if doc is None:
        print("no positivity witness found")
    else:
        print(f"witness u={doc['u']} ell0={doc['ell0']} b={doc['b']!r}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser tree for the cocyclelab command line:
    parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description="Lyapunov exponents of non-negative matrix cocycles over symbolic sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a registered scenario and grade its verdict")
    p.add_argument("scenario")
    p.add_argument("--override", action="append", metavar="KEY=VALUE")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("list", help="list registered scenarios")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("trace", help="exponent trace of a cocycle along a source")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--checkpoints", help="comma-separated checkpoint list (overrides --horizon)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("returns", help="return-word exponent estimate")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, required=True, help="prefix length to analyze")
    p.add_argument("--k0", type=int, default=8, help="marker length")
    p.add_argument("--max-ell", type=int, default=4, help="positivity search horizon")
    p.add_argument("--cutoff", type=int, default=64, help="return-word length cutoff")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_returns)

    p = sub.add_parser("spectrum", help="multifractal spectrum on a beta grid")
    p.add_argument("--spec", required=True, help="weighted_average description file")
    p.add_argument("--beta-min", type=float, default=-5.0)
    p.add_argument("--beta-max", type=float, default=5.0)
    p.add_argument("--beta-count", type=int, default=21)
    p.add_argument("--horizon", type=int, default=1_000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("check", help="search for a positive product window")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, default=10_000, help="sample prefix length")
    p.add_argument("--max-ell", type=int, default=4)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CocycleLabError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
