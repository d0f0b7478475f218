"""Command-line interface: experiments, bound evaluation, record emission.

Machine output (CSV/JSON records) goes to stdout or --out; human-readable
summaries and verification results go to stderr.  One writer emits the records
of every experiment, each as its trial finishes, so a run that fails or is
interrupted keeps the records before it.  Each subcommand handler returns its
failed checks, and main alone decides the exit code: 0 success, 1
verification failure, 2 bad flags, 3 bad config file, 4 output I/O error, 5
internal error.  Flags (and --out) are checked before any work starts; input
that the library rejects (InvalidInput), inside a trial or not, is exit 2
too, and any other exception, a ValueError included, is exit 5.

Each subcommand takes only the flags its handler reads (a bounds op those its
function reads, as the table _BOUND_OPS declares).  A flag's default is
ExperimentConfig's field default where one exists, and each argument check
is the library's.  A config file's `key = value` lines are parsed as the
flags `--key=value`, ahead of the command line, so explicit flags win.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import os
import sys
import traceback
import typing
from contextlib import contextmanager
from dataclasses import asdict, fields as dataclass_fields
from functools import partial

from . import bounds as bounds_mod
from . import montecarlo, oracles
from .montecarlo import ExperimentConfig, TrialRecord
from .patching import GStrategy
from .weights import BaseLaw, InvalidInput, WeightSpec

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

_RECORD_FIELDS = tuple(f.name for f in dataclass_fields(TrialRecord))
_MANDATORY_FIELDS = _RECORD_FIELDS[:5]


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _float_list(text: str):
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minweight",
        description="Random minimum-weight set experiments and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = ExperimentConfig  # its class attributes are the field defaults
    common = {  # in usage order; a subcommand takes those its handler reads
        "q": dict(type=float, default=defaults.spec.q,
                  help="power exponent of the weight law (default %(default)s)"),
        "base": dict(choices=tuple(b.value for b in BaseLaw),
                     default=defaults.spec.base.value,
                     help="base distribution of the q:th power "
                          "(default %(default)s)"),
        "trials": dict(type=int, default=defaults.trials,
                       help="trial count (default %(default)s)"),
        "seed": dict(type=int, default=defaults.master_seed,
                     help="master seed (default %(default)s)"),
        "format": dict(choices=("csv", "json"), default="csv",
                       help="record encoding (default %(default)s)"),
        "out": dict(help="write records here instead of stdout"),
        "config": dict(help="key = value config file"),
        "tolerance": dict(type=float,
                          help="enable the subcommand's tolerance verification"),
    }
    experiment = ("q", "base", "trials", "seed", "format")

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        """The subcommand's parser; parsing it sets args.handler (the
        dispatch) and args.subparser (for config files)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, subparser=p)
        return p

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        """The common flags `names`, and --out and --config, which all take."""
        for name, kwargs in common.items():
            if name in names or name in ("out", "config"):
                p.add_argument(f"--{name}", **kwargs)

    def add_sizes(p: argparse.ArgumentParser, family: bool = True) -> None:
        p.add_argument("--n", type=int)
        p.add_argument("--n-grid", dest="n_grid", type=_int_list,
                       metavar="A,B,C", help="comma-separated sizes")
        if family:
            p.add_argument("--family", choices=("trees", "matchings"),
                           default="trees", help="(default %(default)s)")

    for name, family, limit, help in (
        ("mst", "trees", montecarlo.SPANNING_TREE_LIMIT,
         "spanning-tree optimum value experiment"),
        ("assignment", "matchings", montecarlo.ASSIGNMENT_LIMIT,
         "perfect-matching optimum experiment"),
    ):
        p = command(name, partial(_cmd_value, family=family, limit=limit), help)
        add_sizes(p, family=False)
        add_common(p, *experiment, "tolerance")

    p = command("patch", _cmd_patch, "re-completion cost of depleted subsets")
    add_sizes(p)
    p.add_argument("--r", type=int, help="elements removed from the member")
    p.add_argument("--g-strategy", dest="g_strategy",
                   choices=tuple(s.value for s in GStrategy),
                   default=defaults.g_strategy.value, help="(default %(default)s)")
    add_common(p, *experiment)

    p = command("dual", _cmd_dual, "defect of the best affordable subset")
    add_sizes(p)
    p.add_argument("--L", dest="budget", metavar="L", type=float, help="weight budget")
    p.add_argument("--r", type=int, help="also check duality at distance r")
    add_common(p, *experiment)

    p = command("coupling", _cmd_coupling, "verify the coupled triple construction")
    p.add_argument("--s", type=float, help="split fraction in (0,1)")
    add_common(p, "q", "base", "trials", "seed")

    p = command("bounds", _cmd_bounds, "evaluate a closed-form bound")
    p.add_argument("--op", choices=tuple(_BOUND_OPS))
    for name, kind in _BOUND_FLAGS.items():  # None if not given (_cmd_bounds)
        shown = f"(default {_BOUND_DEFAULTS[name]})" if name in _BOUND_DEFAULTS else None
        p.add_argument(f"--{name}", type=kind, help=shown)
    add_common(p)

    p = command("tail", _cmd_tail, "empirical survival against the tail bound")
    add_sizes(p)
    p.add_argument("--t-grid", dest="t_grid", type=_float_list,
                   metavar="A,B,C", help="comma-separated thresholds")
    add_common(p, *experiment)

    p = command("split", _cmd_split, "green/red coupled two-round sure bound")
    add_sizes(p)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=float)
    add_common(p, *experiment)

    p = command("oracle", _cmd_oracle, "compare solvers against enumeration")
    add_common(p, "trials", "seed", "format")

    return parser


def _load_config(path: str) -> list[str]:
    """The file's `key = value` lines as `--key=value` flags."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}", EXIT_CONFIG)
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}", EXIT_CONFIG
            )
        key, value = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _config_flags(args) -> list[str]:
    """The config file's flags, checked by the subcommand's own parser."""
    flags, sub = _load_config(args.config), args.subparser
    # Raise ArgumentError instead of exiting, and take no key for its prefix.
    sub.exit_on_error = sub.allow_abbrev = False
    try:
        namespace, unknown = sub.parse_known_args(flags)
    except argparse.ArgumentError as exc:
        raise CliError(f"bad config value in {args.config}: {exc}", EXIT_CONFIG)
    finally:
        sub.exit_on_error = sub.allow_abbrev = True
    if namespace.config is not None:  # a config file cannot name another
        unknown.insert(0, "--config")
    if unknown:
        key = unknown[0][2:].split("=", 1)[0]
        raise CliError(
            f"unknown config key {key!r} for subcommand {args.command!r}", EXIT_CONFIG
        )
    return flags


def _require(args, name: str) -> object:
    value = getattr(args, name)
    if value is None:  # dual's --L is the one flag named apart from its dest
        flag = "--L" if name == "budget" else "--" + name.replace("_", "-")
        raise CliError(f"{flag} is required for this subcommand", EXIT_USAGE)
    return value


def _weight_spec(args) -> WeightSpec:
    try:
        return WeightSpec(q=args.q, base=BaseLaw(args.base))
    except ValueError as exc:
        raise CliError(f"--q/--base invalid: {exc}", EXIT_USAGE)


def _experiment_config(args, family: str, kind: str) -> ExperimentConfig:
    """The given flags named as config fields (sizes, trials and the kind's
    parameters), with the family, the weight law, the seed and the kind."""
    for name in montecarlo.KINDS[kind][1]:  # the parameters the kind requires
        _require(args, name)
    names = {f.name for f in dataclass_fields(ExperimentConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    try:
        return ExperimentConfig(**{**given, "family": family}, kind=kind,
                                spec=_weight_spec(args), master_seed=args.seed)
    except ValueError as exc:
        raise CliError(f"bad flags: {exc}", EXIT_USAGE)


def _write_records(records, fmt: str, out: typing.TextIO) -> list[TrialRecord]:
    """Write each record to `out` as it arrives, flushed; return them all.
    The columns are the mandatory fields and those the first record sets (a
    config's trials all set the same ones).  If `records` raises, `out` holds
    the header and each earlier record: a prefix of the full output."""
    written, fields = [], _MANDATORY_FIELDS
    for rec in records:
        if not written:
            fields += tuple(f for f in _RECORD_FIELDS[5:]
                            if getattr(rec, f) is not None)
            out.write(",".join(fields) + "\n" if fmt == "csv" else "[")
        if fmt == "csv":
            out.write(",".join(_fmt(getattr(rec, f)) for f in fields) + "\n")
        else:  # this element's bytes in json.dumps(records, indent=2)
            element = json.dumps({f: getattr(rec, f) for f in fields}, indent=2)
            out.write(("," if written else "") + "\n  " + element.replace("\n", "\n  "))
        out.flush()
        written.append(rec)
    if fmt == "json":
        out.write("\n]\n" if written else "[]\n")
    elif not written:
        out.write(",".join(fields) + "\n")
    out.flush()
    return written


def render_csv(records: list[TrialRecord]) -> str:
    text = io.StringIO()
    _write_records(records, "csv", text)
    return text.getvalue()


@contextmanager
def _output(path: str | None) -> typing.Iterator[typing.TextIO]:
    """The one output sink: machine output to `path`, or stdout if None."""
    try:
        if path is None:
            yield sys.stdout
        else:
            with open(path, "w") as fh:
                yield fh
    except OSError as exc:  # stdout too: its reader may have closed it
        if path is None:  # drop its unwritten bytes, so exit does not flush them
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliError(f"cannot write {path or 'stdout'}: {exc}", EXIT_IO)


def _write(text: str, path: str | None) -> None:
    with _output(path) as out:
        out.write(text)


def emit(config: ExperimentConfig, args) -> list[TrialRecord]:
    """Run the config's trials and write each record as its trial finishes."""
    with _output(args.out) as out:  # opened before the first trial
        return _write_records(montecarlo.trials(config), args.format, out)


def _note(line: str) -> None:
    print(line, file=sys.stderr)


def _cmd_value(args, family: str, limit: float) -> list[str]:
    config = _experiment_config(args, family, "value")
    if args.tolerance is not None and len(config.sizes) == 1 and config.spec.q != 1:
        raise CliError("--tolerance verification needs --q 1 (limit constant known)",
                       EXIT_USAGE)
    if args.tolerance is not None and len(config.sizes) == 2:
        raise CliError("--n-grid needs at least 3 sizes for slope verification",
                       EXIT_USAGE)
    if len(config.sizes) >= 3 and config.trials == 1:
        raise CliError("the std slope over --n-grid needs --trials >= 2", EXIT_USAGE)
    records = emit(config, args)
    failures = []
    if len(config.sizes) == 1:
        stats = montecarlo.summarize(r.value for r in records)
        _note(f"{family} n={config.sizes[0]}: count={stats.count} "
              f"mean={_fmt(stats.mean)} median={_fmt(stats.median)} "
              f"std={_fmt(stats.std)} se={_fmt(stats.se)}")
        if args.tolerance is not None:
            rel = abs(stats.mean - limit) / limit
            _note(f"limit check: mean={_fmt(stats.mean)} target={_fmt(limit)} "
                  f"rel_err={_fmt(rel)} tolerance={_fmt(args.tolerance)}")
            if rel > args.tolerance:
                failures.append(f"mean deviates {rel:.3g} > {args.tolerance:.3g}")
    else:
        points = []
        for n in config.sizes:
            values = [r.value for r in records if r.n == n]
            stats = montecarlo.summarize(values)
            _note(f"{family} n={n}: mean={_fmt(stats.mean)} std={_fmt(stats.std)}")
            points.append((n, stats.std))
        if len(points) >= 3 and min(std for _, std in points) == 0.0:
            _note("std slope: undefined, a size's std is 0")
            if args.tolerance is not None:
                failures.append("std slope undefined")
        elif len(points) >= 3:
            fit = montecarlo.fit_exponent(points)
            _note(f"std slope: {_fmt(fit.slope)} (intercept {_fmt(fit.intercept)}, "
                  f"residual {_fmt(fit.residual)})")
            if args.tolerance is not None:
                cap = (bounds_mod.fluctuation_exponent_bound(config.spec.q)
                       + args.tolerance)
                _note(f"slope cap: {_fmt(cap)}")
                if fit.slope > cap:
                    failures.append(f"slope {fit.slope:.4f} above cap {cap:.4f}")
    return failures


def _cmd_patch(args) -> list[str]:
    config = _experiment_config(args, args.family, "patch")
    records = emit(config, args)
    q, r = config.spec.q, config.r
    dominance_violations = 0
    for n in config.sizes:
        recs = [rec for rec in records if rec.n == n]
        costs = [rec.patch_cost for rec in recs]
        stats = montecarlo.summarize(costs)
        line = f"patch n={n} r={r}: mean_cost={_fmt(stats.mean)}"
        if r:  # r = 0 patches nothing: there is no scale to normalize by
            line += f" normalized={_fmt(stats.mean / (r * n ** (-1.0 / q)))}"
        _note(line)
        dominance_violations += sum(
            1
            for rec in recs
            if rec.component_cost is not None and rec.component_cost < rec.patch_cost
        )
    if dominance_violations:
        return [f"component patch beat the exact patch {dominance_violations} times"]
    return []


def _cmd_dual(args) -> list[str]:
    config = _experiment_config(args, args.family, "dual")
    budget, r = config.budget, config.r
    records = emit(config, args)
    defects = [rec.defect for rec in records]
    stats = montecarlo.summarize(defects)
    _note(f"defect at budget {_fmt(budget)}: mean={_fmt(stats.mean)} "
          f"max={max(defects)}")
    if r is not None:
        violations = sum(
            1
            for rec in records
            if (rec.near_value <= budget) != (rec.defect <= r)
        )
        _note(f"duality check at r={r}: {violations} violations")
        if violations:
            return ["budget/distance duality violated"]
    return []


def _cmd_coupling(args) -> list[str]:
    s = _require(args, "s")
    report = montecarlo.coupling_experiment(_weight_spec(args), s, args.trials,
                                            args.seed)
    # The two partial verdicts give way to their conjunction, all_ok.
    payload = {k: v for k, v in asdict(report).items() if not k.endswith("_ok")}
    payload["all_ok"] = report.all_ok
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return [] if report.all_ok else ["coupling checks did not pass"]


# Each bounds op: its function, the flags it reads in that function's argument
# order, and its output: one label for a number, or (label, field) pairs.
_BOUND_OPS = {
    "ab-min": (bounds_mod.split_cost_minimum, ("a", "b", "p"), (
        ("s0", "split"), ("fmin", "minimum"), ("secant_bound", "secant_bound"))),
    "concentration": (bounds_mod.concentration_upper_bound, ("L", "lam", "q"), "bound"),
    "r-min": (bounds_mod.required_patch_radius, ("ell", "eps"), "radius"),
    "ball-volume": (bounds_mod.cheap_set_prob_bound, ("q", "m", "L"), "probability"),
    "upper-tail": (bounds_mod.upper_tail_bound, ("t", "q"), "probability"),
    "mean-median": (bounds_mod.mean_to_median_ratio_bound, ("q",), "ratio"),
    "first-moment": (bounds_mod.first_moment_lower_bound,
                     ("q", "ell0", "ell1", "beta", "c", "t"),
                     tuple((f, f) for f in ("l_lower", "failure_prob_bound", "c0", "c1",
                                            "small_sets_dominate", "log_markov_sum"))),
    "fluctuation-exponent": (bounds_mod.fluctuation_exponent_bound, ("q",), "exponent"),
}
_BOUND_DEFAULTS = {"q": ExperimentConfig.spec.q, "eps": 0.05}
# Each op flag, in order of first use, typed as the argument it fills.
_BOUND_FLAGS = {name: typing.get_type_hints(fn)[param]
                for fn, names, _ in _BOUND_OPS.values()
                for name, param in zip(names, inspect.signature(fn).parameters)}


def _cmd_bounds(args) -> list[str]:
    op = args.op
    if op is None:
        raise CliError("--op is required for the bounds subcommand", EXIT_USAGE)
    fn, names, output = _BOUND_OPS[op]
    for name in _BOUND_FLAGS:
        if getattr(args, name) is None:  # not given: --q and --eps have defaults
            setattr(args, name, _BOUND_DEFAULTS.get(name))
        elif name not in names:
            raise CliError(f"--{name} is not read by --op {op}", EXIT_USAGE)
    try:
        result = fn(*(_require(args, name) for name in names))
    except ValueError as exc:
        raise CliError(f"bad value for --op {op}: {exc}", EXIT_USAGE)
    pairs = [(output, result)] if isinstance(output, str) else [
        (label, getattr(result, field)) for label, field in output]
    _write("".join(f"{label} = {_fmt(v)}\n" for label, v in pairs), args.out)
    return []


def _cmd_tail(args) -> list[str]:
    if not args.t_grid:
        raise CliError("--t-grid is required for the tail subcommand", EXIT_USAGE)
    config = _experiment_config(args, args.family, "value")
    report = montecarlo.tail_experiment(config, emit(config, args))
    _note(f"median estimate: {_fmt(report.mu_hat)}")
    ok = True
    for i, t in enumerate(report.t_grid):
        _note(
            f"t={_fmt(t)}: survival={_fmt(float(report.survival[i]))} "
            f"bound={_fmt(float(report.bound[i]))} "
            f"se={_fmt(float(report.std_error[i]))} "
            f"ok={bool(report.within_bound[i])}"
        )
        ok = ok and bool(report.within_bound[i])
    _note(f"mean={_fmt(report.mean_value)} <= ratio_bound={_fmt(report.mean_bound)}"
          f": {report.mean_ok}")
    return [] if ok and report.mean_ok else ["tail bound exceeded"]


def _cmd_split(args) -> list[str]:
    config = _experiment_config(args, args.family, "split")
    report = montecarlo.split_experiment(config, emit(config, args))
    _note(f"violations: {report.violations} / {len(report.records)}")
    _note(f"median value={_fmt(report.median_value)} "
          f"green={_fmt(report.median_green)} red={_fmt(report.median_red)}")
    _note(f"best split={_fmt(report.best_split)} "
          f"composite bound={_fmt(report.composite_bound)} "
          f"holds={report.composite_holds}")
    return ["sure split inequality violated"] if report.violations else []


def _cmd_oracle(args) -> list[str]:
    checks = oracles.oracle_suite(vectors=args.trials, master_seed=args.seed)
    if args.format == "json":
        text = json.dumps([asdict(c) for c in checks], indent=2) + "\n"
    else:
        text = "".join(
            f"{c.family} n={c.n} {c.operation}: {c.agreed}/{c.trials}\n"
            for c in checks
        )
    _write(text, args.out)
    bad = sum(c.agreed != c.trials for c in checks)
    return [f"{bad} oracle comparisons disagreed"] if bad else []


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # argparse keeps a flag's last occurrence, so explicit flags win.
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        failures = args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Rejected input, in a trial or not, is a usage error, not a failed check.
        rejected = exc.__cause__ if isinstance(exc, RuntimeError) else exc
        if isinstance(rejected, InvalidInput):
            return EXIT_USAGE
        # Anything else is a bug, not a failed check: keep its type and traceback.
        traceback.print_exception(exc.__cause__ or exc, file=sys.stderr)
        return EXIT_INTERNAL
    if failures:
        _note("FAIL: " + "; ".join(failures))
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
