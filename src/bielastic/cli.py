"""Command line front end for the experiment runner.

Subcommands cover the three solver families, the built-in examples, mesh
inspection, and a quick self test. Options may also come from a JSON
config file with the same key names (underscores for dashes), which the
same parser reads; explicit command line values win over config values.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from .coefficients import Coefficient
from .harness import ExampleDef, check_levels, run_example, self_test
from .mesh import DOMAINS, LEVEL_CAP, dump_mesh, generate_domain


def parse_levels(value, big=False):
    """Levels given as a range "1-3" or a comma list "1,2,4".  A range's
    ends are checked against the level cap before it is expanded."""
    try:
        if "-" not in value:
            return tuple(int(part) for part in value.split(","))
        lo, hi = (int(end) for end in value.split("-", 1))
    except ValueError:
        raise ValueError('levels must be a range "1-3", a comma list "1,2,4" '
                         f"or a list of integers, got {value!r}") from None
    check_levels((lo, hi), big)
    return tuple(range(lo, hi + 1))


def parse_tau_range(text):
    """A secant scan interval "lo:hi" as two floats."""
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'must be "lo:hi" with two numbers, got {text!r}') from None


def _join_tau_range(argv):
    """Rewrite "--tau-range -5:3" as "--tau-range=-5:3": argparse reads a
    value that starts with "-" as an option, which a range with a negative
    lower end does."""
    out = []
    for arg in argv:
        if (out and out[-1] == "--tau-range" and arg.startswith("-")
                and not arg.startswith("--") and ":" in arg):
            out[-1] = f"--tau-range={arg}"
        else:
            out.append(arg)
    return out


def parse_coefficient(text):
    """A plain number becomes a constant, anything else an expression in
    x1 and x2."""
    try:
        return Coefficient.constant(float(text))
    except (TypeError, ValueError):
        return Coefficient.expression(str(text))


def _add_output_flags(parser):
    parser.add_argument("--out", help="output file (.csv/.json) or directory")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="stdout serialization when --out is absent")
    parser.add_argument("--config", help="JSON config file with option keys")


def _add_level_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--level", type=int, help="single refinement level")
    group.add_argument("--levels", help='level set, "1-3" or "1,2,4"')
    parser.add_argument("--big", action="store_true",
                        help="allow level 5 (long runtime)")


def _add_problem_flags(parser, beta=False, densities=False):
    parser.add_argument("--domain", choices=DOMAINS, help="mesh domain")
    parser.add_argument("--element", choices=("b3", "morley"))
    parser.add_argument("--alpha", type=float,
                        help="stabilization weight (morley only)")
    parser.add_argument("--lam", type=float, help="first Lame parameter")
    parser.add_argument("--mu", type=float, help="second Lame parameter")
    if beta:
        parser.add_argument("--beta", help="weight coefficient")
    if densities:
        parser.add_argument("--rho0", help="outer density coefficient")
        parser.add_argument("--rho1", help="inner density coefficient")


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' too, that reads only full
    option names and raises each error for ``main`` to report, exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="bielastic",
        description="fourth-order elastic source, eigenvalue, and "
                    "transmission-eigenvalue experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("solve-source", help="weighted source problem")
    _add_problem_flags(p, beta=True)
    p.add_argument("--f1", help="first load component expression")
    p.add_argument("--f2", help="second load component expression")
    _add_level_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("solve-bielastic", help="weighted eigenvalue problem")
    _add_problem_flags(p, beta=True)
    p.add_argument("--k", type=int, help="number of eigenvalues")
    _add_level_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("solve-tep", help="transmission eigenvalue problem")
    _add_problem_flags(p, densities=True)
    p.add_argument("--k", type=int, help="number of eigenvalues")
    p.add_argument("--method", choices=("secant", "quadratic"))
    p.add_argument("--tau-range", type=parse_tau_range,
                   help="secant scan interval lo:hi")
    _add_level_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("run-example", help="run a built-in example 1-9")
    p.add_argument("number", type=int, help="example number, 1-9")
    p.add_argument("--element", choices=("b3", "morley"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--method", choices=("secant", "quadratic"))
    p.add_argument("--k", type=int)
    p.add_argument("--tau-range", type=parse_tau_range,
                   help="secant scan interval lo:hi")
    _add_level_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("dump-mesh", help="write a mesh as plain text")
    p.add_argument("--domain", choices=DOMAINS)
    p.add_argument("--level", type=int, help="refinement level, 1-based")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--config", help="JSON config file with option keys")

    sub.add_parser("self-test", help="verify built-in definitions")
    return parser


def _config_args(path, parser):
    """A JSON config file's options as "--key=value" arguments, for the
    command's own ``parser`` to read as flags: null is absent, a list is
    the comma list of its JSON entries, and a flag option, which takes no
    value, is the bare "--key" for true and absent for false."""
    with open(path) as handle:
        config = json.load(handle)
    if not isinstance(config, dict) or "config" in config:
        raise ValueError("config must be a JSON object with no config key")
    for key, value in config.items():
        option = f"--{key.replace('_', '-')}"
        # a flag's store_true action defaults to False, any other to None
        if (isinstance(value, bool)
                and parser.get_default(key.replace("-", "_")) is False):
            if value:
                yield option
            continue
        if isinstance(value, list):
            value = ",".join(map(json.dumps, value))
        if value is not None:
            yield f"{option}={value}"


def _levels(ns):
    if ns.get("level") is not None:
        return (ns["level"],)
    if ns.get("levels") is not None:
        return parse_levels(ns["levels"], ns["big"])


def _require(ns, *keys):
    for key in keys:
        if ns.get(key) is None:
            raise ValueError(f"--{key.replace('_', '-')} is required")


def _emit(report, ns):
    for entry in report.meta["warnings"]:
        print(f"warning: level {entry['level']}: {entry['message']}",
              file=sys.stderr)
    out, fmt = ns.get("out"), ns.get("format")
    if out:
        path = Path(out)
        if path.suffix == ".csv":
            path.write_text(report.to_csv())
        elif path.suffix == ".json":
            path.write_text(report.to_json())
        else:
            path.mkdir(parents=True, exist_ok=True)
            (path / "report.csv").write_text(report.to_csv())
            (path / "report.json").write_text(report.to_json())
            for name, content in report.plot_data().items():
                (path / name).write_text(content)
    if fmt == "csv" and not out:
        sys.stdout.write(report.to_csv())
    elif fmt == "json" and not out:
        sys.stdout.write(report.to_json())
    else:
        print(report.table(), end="")
    return 0


def _adhoc_example(ns):
    """The unnumbered example that a solve command's options describe."""
    _require(ns, "domain", "lam", "mu")
    kind = ns["command"].removeprefix("solve-")
    beta = 1.0 if ns.get("beta") is None else ns["beta"]
    if kind == "tep":
        _require(ns, "rho0", "rho1")
        coeffs = dict(rho0=parse_coefficient(ns["rho0"]),
                      rho1=parse_coefficient(ns["rho1"]), branches=10)
    elif kind == "bielastic":
        coeffs = dict(beta=parse_coefficient(beta), branches=6)
    else:
        _require(ns, "f1", "f2")
        coeffs = dict(beta=parse_coefficient(beta),
                      loads=(Coefficient.expression(ns["f1"]),
                             Coefficient.expression(ns["f2"])))
    return ExampleDef(None, kind, ns["domain"], ns["lam"], ns["mu"], 0,
                      **coeffs)


def _dispatch(ns):
    cmd = ns["command"]
    if cmd == "self-test":
        return 0 if self_test(stream=sys.stdout) else 4

    if cmd == "dump-mesh":
        _require(ns, "domain", "level")
        # the 1-based level L is level L - 1 of the mesh hierarchy
        if not 1 <= ns["level"] <= LEVEL_CAP + 1:
            raise ValueError(
                f"levels are 1-based, from 1 to {LEVEL_CAP + 1}")
        mesh = generate_domain(ns["domain"], ns["level"] - 1)
        if ns.get("out"):
            with open(ns["out"], "w") as handle:
                dump_mesh(mesh, handle)
        else:
            dump_mesh(mesh, sys.stdout)
        return 0

    levels = _levels(ns)
    example = ns["number"] if cmd == "run-example" else _adhoc_example(ns)
    report = run_example(
        example, levels=levels, element=ns.get("element") or "b3",
        alpha=ns.get("alpha"), method=ns.get("method"), k=ns.get("k"),
        tau_range=ns.get("tau_range"), big=ns["big"],
    )
    return _emit(report, ns)


def main(argv=None):
    argv = _join_tau_range(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = vars(parser.parse_args(argv))
        if ns.get("config"):
            # the command line's own arguments come last, so they win
            command, *rest = argv
            config = _config_args(ns["config"], parser.commands[ns["command"]])
            ns = vars(parser.parse_args([command, *config, *rest]))
        return _dispatch(ns)
    except (RuntimeError, np.linalg.LinAlgError, spla.ArpackError) as exc:
        # LinAlgError subclasses ValueError, so solver failures must be
        # matched before the invalid-specification family
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
