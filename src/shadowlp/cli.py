"""Command-line interface.

Subcommands:

* ``solve INSTANCE.json`` — run the two-phase solver on one instance and
  print a JSON report.
* ``experiment-pivots`` / ``experiment-sections`` — run a seeded experiment
  grid and write the CSV.
* ``verify`` — run the acceptance battery, print one PASS/FAIL line per
  criterion plus a JSON summary.

Instance files are JSON objects ``{"d": int, "n": int, "A": [[...]],
"b": [...], "z": [...]}`` with row-major A.  Exit codes: 0 on a solved
instance (optimal, unbounded or infeasible all count as solved) or a clean
run, 1 on numeric failure or failed verification, 2 on parse or validation
errors (diagnostics name the offending line or field).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments, verify
from .geometry import SingularSystem
from .interpolate import GeneralLP, NumericFailure, solve_lp
from .phase1 import GaveUp
from .shadow_walk import CycleSuspected, WalkInvariantViolation, WalkStateError


class CLIError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _load_json(path, what):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CLIError(f"cannot read {what} {path!r}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise CLIError(f"parse error in {what} {path!r}: {exc.msg} "
                       f"(line {exc.lineno}, column {exc.colno})")


def _load_instance(path):
    data = _load_json(path, "instance file")
    if not isinstance(data, dict):
        raise CLIError(f"instance file {path!r}: expected a JSON object")
    required = ("d", "n", "A", "b", "z")
    missing = [k for k in required if k not in data]
    if missing:
        raise CLIError(f"instance file {path!r}: missing fields {missing}")
    extra = sorted(set(data) - set(required))
    if extra:
        raise CLIError(f"instance file {path!r}: unknown fields {extra}")
    try:
        n, d = int(data["n"]), int(data["d"])
    except (TypeError, ValueError):
        raise CLIError(f"instance file {path!r}: fields 'n' and 'd' must be integers")
    for name, length, width in (("A", n, d), ("b", n, None), ("z", d, None)):
        value = data[name]
        if not isinstance(value, list) or len(value) != length:
            raise CLIError(f"instance file {path!r}: field {name!r} must be a "
                           f"list of length {length}")
        if width is not None:
            for i, row in enumerate(value):
                if not isinstance(row, list) or len(row) != width:
                    raise CLIError(f"instance file {path!r}: field 'A' row {i} "
                                   f"must be a list of length {width}")
    try:
        return GeneralLP(np.asarray(data["A"], dtype=float),
                         np.asarray(data["b"], dtype=float),
                         np.asarray(data["z"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise CLIError(f"instance file {path!r}: {exc}")


def cmd_solve(args):
    lp = _load_instance(args.instance)
    try:
        result = solve_lp(lp, rng=args.seed, validate=args.validate)
    except (NumericFailure, GaveUp, CycleSuspected, SingularSystem, WalkStateError,
            WalkInvariantViolation) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    report = {
        "status": result.status,
        "basis": list(result.basis) if result.basis is not None else None,
        "x_opt": [float(v) for v in result.x_opt] if result.x_opt is not None else None,
        "objective": result.objective_value(lp),
        "pivots_phase1": result.pivots_phase1,
        "pivots_phase2": result.pivots_phase2,
        "phase1_iterations": result.phase1_iterations,
    }
    print(json.dumps(report, indent=2))
    return 0


def _build_config(args):
    mapping = {}
    if args.config is not None:
        mapping = _load_json(args.config, "config file")
        if not isinstance(mapping, dict):
            raise CLIError(f"config file {args.config!r}: expected a JSON object")
    for name in ("seed", "out", "threads"):
        value = getattr(args, name)
        if value is not None:
            mapping[name] = value
    try:
        return experiments.ExperimentConfig.from_mapping(mapping)
    except (TypeError, ValueError) as exc:
        raise CLIError(str(exc))


def _run_experiment(args, runner):
    config = _build_config(args)
    header, rows = runner(config)
    if config.out:
        experiments.write_csv(config.out, header, rows)
        print(f"wrote {config.out}")
    else:
        sys.stdout.write(experiments.csv_text(header, rows))
    return 0


def cmd_experiment_pivots(args):
    return _run_experiment(args, experiments.run_pivot_experiment)


def cmd_experiment_sections(args):
    return _run_experiment(args, experiments.run_section_experiment)


def _parse_suites(text):
    if text is None:
        return None
    try:
        criteria = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise CLIError(f"--suites: expected comma-separated integers, got {text!r}")
    bad = [c for c in criteria if not 1 <= c <= 8]
    if bad:
        raise CLIError(f"--suites: criteria out of range 1..8: {bad}")
    if not criteria:
        raise CLIError("--suites: no criteria given")
    return criteria


def cmd_verify(args):
    criteria = _parse_suites(args.suites)
    seed = args.seed if args.seed is not None else verify.VERIFY_SEED
    results = verify.run_all(seed=seed, echo=print, criteria=criteria)
    report = verify.summary(results)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="shadowlp",
        description="Two-phase shadow-vertex simplex solver, experiment grids "
                    "and acceptance battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="path to the instance JSON")
    p_solve.add_argument("--seed", type=int, default=0,
                         help="seed for the randomized start (default 0)")
    p_solve.add_argument("--validate", action="store_true",
                         help="check walk invariants at every pivot")
    p_solve.set_defaults(func=cmd_solve)

    for name, help_text, func in (
            ("experiment-pivots", "pivot-count growth grid", cmd_experiment_pivots),
            ("experiment-sections", "section edge-count grid", cmd_experiment_sections)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config with n/d/sigma/trials/seed/out/threads/model")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output path")
        p.add_argument("--threads", type=int, help="override the config worker count")
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--seed", type=int, help="battery seed (fixed default)")
    p_verify.add_argument("--out", help="also write the JSON summary here")
    p_verify.add_argument("--suites", help="comma-separated criteria subset, e.g. 1,4,8")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
