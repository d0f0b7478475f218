"""Command-line interface: experiments, bound evaluation, record emission.

Machine output (CSV/JSON records) goes to stdout or --out; human-readable
summaries and verification results go to stderr.  Each subcommand handler
returns its failed checks, and main alone decides the exit code: 0 success,
1 verification failure, 2 bad flags, 3 bad config file, 4 output I/O error,
5 internal error.  Flags are checked before any work starts; input that
the library rejects (InvalidInput), inside a trial or not, is exit 2 too,
and any other exception, a ValueError included, is exit 5.

Each subcommand takes only the flags its handler reads.  A flag's default
is ExperimentConfig's field default where one exists, and each argument
check is the library's.  A config file's `key = value` lines are parsed as
the flags `--key=value`, ahead of the command line, so explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
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
    p.add_argument("--L", dest="L", type=float, help="weight budget")
    p.add_argument("--r", type=int, help="also check duality at distance r")
    add_common(p, *experiment)

    p = command("coupling", _cmd_coupling, "verify the coupled triple construction")
    p.add_argument("--s", type=float, help="split fraction in (0,1)")
    add_common(p, "q", "base", "trials", "seed")

    p = command("bounds", _cmd_bounds, "evaluate a closed-form bound")
    p.add_argument("--op", required=False, choices=(
        "ab-min", "concentration", "r-min", "ball-volume", "upper-tail",
        "mean-median", "first-moment", "fluctuation-exponent",
    ))
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--L", dest="L", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--ell", type=int)
    p.add_argument("--eps", type=float, default=0.05, help="(default %(default)s)")
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--ell0", type=int)
    p.add_argument("--ell1", type=int)
    add_common(p, "q")

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
    if value is None:
        flag = "--" + name.replace("_", "-")
        raise CliError(f"{flag} is required for this subcommand", EXIT_USAGE)
    return value


def _weight_spec(args) -> WeightSpec:
    try:
        return WeightSpec(q=args.q, base=BaseLaw(args.base))
    except ValueError as exc:
        raise CliError(f"--q/--base invalid: {exc}", EXIT_USAGE)


def _experiment_config(args, family: str, kind: str, **extra) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            family=family,
            n=args.n,
            n_grid=args.n_grid or (),
            spec=_weight_spec(args),
            trials=args.trials,
            master_seed=args.seed,
            kind=kind,
            **extra,
        )
    except ValueError as exc:
        raise CliError(f"bad flags: {exc}", EXIT_USAGE)


def render_csv(records: list[TrialRecord]) -> str:
    fields = _active_fields(records)
    lines = [",".join(fields)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, f)) for f in fields))
    return "\n".join(lines) + "\n"


def render_json(records: list[TrialRecord]) -> str:
    fields = _active_fields(records)
    payload = [{f: getattr(rec, f) for f in fields} for rec in records]
    return json.dumps(payload, indent=2) + "\n"


def _active_fields(records: list[TrialRecord]) -> tuple[str, ...]:
    if not records:
        return _MANDATORY_FIELDS
    extra = tuple(
        f
        for f in _RECORD_FIELDS[5:]
        if any(getattr(rec, f) is not None for rec in records)
    )
    return _MANDATORY_FIELDS + extra


def _write(text: str, path: str | None) -> None:
    """The one output sink: machine output to `path`, or stdout if None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def emit(records: list[TrialRecord], fmt: str, path: str | None) -> None:
    _write(render_csv(records) if fmt == "csv" else render_json(records), path)


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
    records = montecarlo.run(config)
    emit(records, args.format, args.out)
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
        if len(points) >= 3:
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
    r = _require(args, "r")
    config = _experiment_config(
        args, args.family, "patch", r=r, g_strategy=GStrategy(args.g_strategy)
    )
    records = montecarlo.run(config)
    emit(records, args.format, args.out)
    q = config.spec.q
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
    budget, r = _require(args, "L"), args.r
    config = _experiment_config(args, args.family, "dual", budget=budget, r=r)
    records = montecarlo.run(config)
    emit(records, args.format, args.out)
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


def _cmd_bounds(args) -> list[str]:
    op = args.op
    if op is None:
        raise CliError("--op is required for the bounds subcommand", EXIT_USAGE)
    try:
        lines = _evaluate_bound(args, op)
    except ValueError as exc:
        raise CliError(f"bad value for --op {op}: {exc}", EXIT_USAGE)
    _write("\n".join(lines) + "\n", args.out)
    return []


def _evaluate_bound(args, op: str) -> list[str]:
    q = args.q
    if op == "ab-min":
        a, b, p = _require(args, "a"), _require(args, "b"), _require(args, "p")
        res = bounds_mod.split_cost_minimum(a, b, p)
        return [
            f"s0 = {_fmt(res.split)}",
            f"fmin = {_fmt(res.minimum)}",
            f"secant_bound = {_fmt(res.secant_bound)}",
        ]
    if op == "concentration":
        level, lam = _require(args, "L"), _require(args, "lam")
        return [f"bound = {_fmt(bounds_mod.concentration_upper_bound(level, lam, q))}"]
    if op == "r-min":
        radius = bounds_mod.required_patch_radius(_require(args, "ell"), args.eps)
        return [f"radius = {_fmt(radius)}"]
    if op == "ball-volume":
        m, level = _require(args, "m"), _require(args, "L")
        return [f"probability = {_fmt(bounds_mod.cheap_set_prob_bound(q, m, level))}"]
    if op == "upper-tail":
        t = _require(args, "t")
        return [f"probability = {_fmt(bounds_mod.upper_tail_bound(t, q))}"]
    if op == "mean-median":
        return [f"ratio = {_fmt(bounds_mod.mean_to_median_ratio_bound(q))}"]
    if op == "fluctuation-exponent":
        return [f"exponent = {_fmt(bounds_mod.fluctuation_exponent_bound(q))}"]
    # The parser's choices leave one op: first-moment.
    res = bounds_mod.first_moment_lower_bound(
        q,
        *(_require(args, name) for name in ("ell0", "ell1", "beta", "c", "t")),
    )
    return [
        f"l_lower = {_fmt(res.l_lower)}",
        f"failure_prob_bound = {_fmt(res.failure_prob_bound)}",
        f"c0 = {_fmt(res.c0)}",
        f"c1 = {_fmt(res.c1)}",
        f"small_sets_dominate = {res.small_sets_dominate}",
        f"log_markov_sum = {_fmt(res.log_markov_sum)}",
    ]


def _cmd_tail(args) -> list[str]:
    if not args.t_grid:
        raise CliError("--t-grid is required for the tail subcommand", EXIT_USAGE)
    config = _experiment_config(args, args.family, "value", t_grid=args.t_grid)
    report = montecarlo.tail_experiment(config)
    emit(report.records, args.format, args.out)
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
    config = _experiment_config(
        args, args.family, "split", r=_require(args, "r"), s=_require(args, "s")
    )
    report = montecarlo.split_experiment(config)
    emit(report.records, args.format, args.out)
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
