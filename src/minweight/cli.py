"""Command-line interface: experiments, bound evaluation, record emission.

Machine output (CSV/JSON records) goes to stdout or --out; human-readable
summaries and verification results go to stderr.  Each subcommand handler
returns its failed checks, and main alone decides the exit code: 0 success,
1 verification failure, 2 bad flags, 3 bad config file, 4 output I/O error,
5 internal error.  Flags are checked before any work starts; input that
the library rejects (InvalidInput), inside a trial or not, is exit 2 too,
and any other exception, a ValueError included, is exit 5.
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
from .families import InvalidInput
from .montecarlo import ExperimentConfig, TrialRecord
from .patching import GStrategy
from .weights import BaseLaw, WeightSpec, split_constants

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

_RECORD_FIELDS = tuple(f.name for f in dataclass_fields(TrialRecord))
_MANDATORY_FIELDS = _RECORD_FIELDS[:5]

_DEFAULTS = {
    "q": 1.0,
    "base": "uniform",
    "trials": 100,
    "seed": 7,
    "format": "csv",
    "eps": 0.05,
    "g_strategy": "remove-from-optimum",
    "family": "trees",
}


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

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        """The subcommand's parser; parsing it sets args.handler (the
        dispatch) and args.subparser (for config files)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, subparser=p)
        return p

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--q", type=float, help="power exponent of the weight law")
        p.add_argument("--base", choices=("uniform", "exponential"),
                       help="base distribution of the q:th power")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int, help="master seed (default 7)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="write records here instead of stdout")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--tolerance", type=float,
                       help="enable the subcommand's tolerance verification")

    def add_sizes(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int)
        p.add_argument("--n-grid", dest="n_grid", type=_int_list,
                       metavar="A,B,C", help="comma-separated sizes")

    p = command("mst", partial(_cmd_value, family="trees",
                               limit=montecarlo.SPANNING_TREE_LIMIT),
                "spanning-tree optimum value experiment")
    add_sizes(p)
    add_common(p)

    p = command("assignment", partial(_cmd_value, family="matchings",
                                      limit=montecarlo.ASSIGNMENT_LIMIT),
                "perfect-matching optimum experiment")
    add_sizes(p)
    add_common(p)

    p = command("patch", _cmd_patch, "re-completion cost of depleted subsets")
    add_sizes(p)
    p.add_argument("--family", choices=("trees", "matchings"))
    p.add_argument("--r", type=int, help="elements removed from the member")
    p.add_argument("--g-strategy", dest="g_strategy",
                   choices=tuple(s.value for s in GStrategy))
    add_common(p)

    p = command("dual", _cmd_dual, "defect of the best affordable subset")
    add_sizes(p)
    p.add_argument("--family", choices=("trees", "matchings"))
    p.add_argument("--L", dest="L", type=float, help="weight budget")
    p.add_argument("--r", type=int, help="also check duality at distance r")
    add_common(p)

    p = command("coupling", _cmd_coupling, "verify the coupled triple construction")
    p.add_argument("--s", type=float, help="split fraction in (0,1)")
    add_common(p)

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
    p.add_argument("--eps", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--ell0", type=int)
    p.add_argument("--ell1", type=int)
    add_common(p)

    p = command("tail", _cmd_tail, "empirical survival against the tail bound")
    add_sizes(p)
    p.add_argument("--family", choices=("trees", "matchings"))
    p.add_argument("--t-grid", dest="t_grid", type=_float_list,
                   metavar="A,B,C", help="comma-separated thresholds")
    add_common(p)

    p = command("split", _cmd_split, "green/red coupled two-round sure bound")
    add_sizes(p)
    p.add_argument("--family", choices=("trees", "matchings"))
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=float)
    add_common(p)

    p = command("oracle", _cmd_oracle, "compare solvers against enumeration")
    add_common(p)

    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}", EXIT_CONFIG)
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}", EXIT_CONFIG
            )
        key, value = line.split("=", 1)
        data[key.strip().replace("-", "_")] = value.strip()
    return data


def _apply_config(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    converters: dict[str, tuple[str, object]] = {}
    for action in args.subparser._actions:
        if action.dest in ("help", "config"):
            continue
        converters[action.dest] = (
            action.option_strings[0] if action.option_strings else action.dest,
            action.type or str,
        )
    data = _load_config(args.config)
    for key, raw in data.items():
        if key not in converters:
            raise CliError(
                f"unknown config key {key!r} for subcommand {args.command!r}",
                EXIT_CONFIG,
            )
        if getattr(args, key, None) is not None:
            continue  # explicit flag wins
        flag, conv = converters[key]
        try:
            setattr(args, key, conv(raw))
        except (TypeError, ValueError) as exc:
            raise CliError(
                f"bad config value for {key!r} ({flag}): {raw!r}: {exc}", EXIT_CONFIG
            )
    # re-check choice restrictions for values sourced from the config file
    for action in args.subparser._actions:
        if action.choices is None or action.dest == "help":
            continue
        value = getattr(args, action.dest, None)
        if value is not None and value not in action.choices:
            raise CliError(
                f"bad config value for {action.dest!r}: {value!r} "
                f"(choose from {', '.join(map(str, action.choices))})",
                EXIT_CONFIG,
            )


def _get(args, name):
    value = getattr(args, name, None)
    return value if value is not None else _DEFAULTS.get(name)


def _require(args, name, flag) -> object:
    value = getattr(args, name, None)
    if value is None:
        raise CliError(f"{flag} is required for this subcommand", EXIT_USAGE)
    return value


def _seed(args) -> int:
    seed = int(_get(args, "seed"))
    if seed < 0:
        raise CliError(f"--seed must be non-negative, got {seed}", EXIT_USAGE)
    return seed


def _weight_spec(args) -> WeightSpec:
    q = float(_get(args, "q"))
    if not q > 0:
        raise CliError(f"--q must be positive, got {q}", EXIT_USAGE)
    try:
        return WeightSpec(q=q, base=BaseLaw(_get(args, "base")))
    except ValueError as exc:
        raise CliError(f"--q/--base invalid: {exc}", EXIT_USAGE)


def _experiment_config(args, family: str, kind: str, **extra) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            family=family,
            n=getattr(args, "n", None),
            n_grid=getattr(args, "n_grid", None) or (),
            spec=_weight_spec(args),
            trials=int(_get(args, "trials")),
            master_seed=int(_get(args, "seed")),
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
    emit(records, _get(args, "format"), args.out)
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
    r = _require(args, "r", "--r")
    strategy = GStrategy(_get(args, "g_strategy"))
    config = _experiment_config(
        args, _get(args, "family"), "patch", r=int(r), g_strategy=strategy
    )
    records = montecarlo.run(config)
    emit(records, _get(args, "format"), args.out)
    q = config.spec.q
    dominance_violations = 0
    for n in config.sizes:
        recs = [rec for rec in records if rec.n == n]
        costs = [rec.patch_cost for rec in recs]
        stats = montecarlo.summarize(costs)
        line = f"patch n={n} r={r}: mean_cost={_fmt(stats.mean)}"
        if int(r):  # r = 0 patches nothing: there is no scale to normalize by
            line += f" normalized={_fmt(stats.mean / (int(r) * n ** (-1.0 / q)))}"
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
    budget = float(_require(args, "L", "--L"))
    r = getattr(args, "r", None)
    config = _experiment_config(
        args, _get(args, "family"), "dual", budget=budget, r=r
    )
    records = montecarlo.run(config)
    emit(records, _get(args, "format"), args.out)
    defects = [rec.defect for rec in records]
    stats = montecarlo.summarize(defects)
    _note(f"defect at budget {_fmt(budget)}: mean={_fmt(stats.mean)} "
          f"max={max(defects)}")
    if r is not None:
        violations = sum(
            1
            for rec in records
            if (rec.near_value <= budget) != (rec.defect <= int(r))
        )
        _note(f"duality check at r={r}: {violations} violations")
        if violations:
            return ["budget/distance duality violated"]
    return []


def _cmd_coupling(args) -> list[str]:
    s, spec = float(_require(args, "s", "--s")), _weight_spec(args)
    try:
        split_constants(s, spec.q)
    except ValueError as exc:
        raise CliError(f"--s/--q invalid: {exc}", EXIT_USAGE)
    trials = int(_get(args, "trials"))
    if trials < montecarlo.COUPLING_MIN_TRIALS:
        raise CliError(
            f"coupling needs --trials >= {montecarlo.COUPLING_MIN_TRIALS}, "
            f"got {trials}", EXIT_USAGE,
        )
    report = montecarlo.coupling_experiment(spec, s, trials, _seed(args))
    payload = {
        "q": report.q, "base": report.base, "s": report.s,
        "trials": report.trials, "violations": report.violations,
        "ks_x_p": report.ks_x_p, "ks_green_p": report.ks_green_p,
        "ks_red_p": report.ks_red_p, "ks_pair_p": report.ks_pair_p,
        "pearson_p": report.pearson_p, "chi2_p": report.chi2_p,
        "alpha": report.alpha, "all_ok": report.all_ok,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return [] if report.all_ok else ["coupling checks did not pass"]


def _cmd_bounds(args) -> list[str]:
    op = getattr(args, "op", None)
    if op is None:
        raise CliError("--op is required for the bounds subcommand", EXIT_USAGE)
    try:
        lines = _evaluate_bound(args, op)
    except ValueError as exc:
        raise CliError(f"bad value for --op {op}: {exc}", EXIT_USAGE)
    _write("\n".join(lines) + "\n", args.out)
    return []


def _evaluate_bound(args, op: str) -> list[str]:
    q = float(_get(args, "q"))
    if op == "ab-min":
        a = float(_require(args, "a", "--a"))
        b = float(_require(args, "b", "--b"))
        p = float(_require(args, "p", "--p"))
        res = bounds_mod.split_cost_minimum(a, b, p)
        return [
            f"s0 = {_fmt(res.split)}",
            f"fmin = {_fmt(res.minimum)}",
            f"secant_bound = {_fmt(res.secant_bound)}",
        ]
    if op == "concentration":
        level = float(_require(args, "L", "--L"))
        lam = float(_require(args, "lam", "--lam"))
        return [f"bound = {_fmt(bounds_mod.concentration_upper_bound(level, lam, q))}"]
    if op == "r-min":
        ell = int(_require(args, "ell", "--ell"))
        eps = float(_get(args, "eps"))
        return [f"radius = {_fmt(bounds_mod.required_patch_radius(ell, eps))}"]
    if op == "ball-volume":
        m = int(_require(args, "m", "--m"))
        level = float(_require(args, "L", "--L"))
        return [f"probability = {_fmt(bounds_mod.cheap_set_prob_bound(q, m, level))}"]
    if op == "upper-tail":
        t = float(_require(args, "t", "--t"))
        return [f"probability = {_fmt(bounds_mod.upper_tail_bound(t, q))}"]
    if op == "mean-median":
        return [f"ratio = {_fmt(bounds_mod.mean_to_median_ratio_bound(q))}"]
    if op == "fluctuation-exponent":
        return [f"exponent = {_fmt(bounds_mod.fluctuation_exponent_bound(q))}"]
    # The parser's choices leave one op: first-moment.
    res = bounds_mod.first_moment_lower_bound(
        q,
        int(_require(args, "ell0", "--ell0")),
        int(_require(args, "ell1", "--ell1")),
        float(_require(args, "beta", "--beta")),
        float(_require(args, "c", "--c")),
        float(_require(args, "t", "--t")),
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
    t_grid = getattr(args, "t_grid", None)
    if not t_grid:
        raise CliError("--t-grid is required for the tail subcommand", EXIT_USAGE)
    config = _experiment_config(
        args, _get(args, "family"), "value", t_grid=tuple(t_grid)
    )
    report = montecarlo.tail_experiment(config)
    emit(report.records, _get(args, "format"), args.out)
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
    r = int(_require(args, "r", "--r"))
    s = float(_require(args, "s", "--s"))
    config = _experiment_config(
        args, _get(args, "family"), "split", r=r, s=s
    )
    report = montecarlo.split_experiment(config)
    emit(report.records, _get(args, "format"), args.out)
    _note(f"violations: {report.violations} / {len(report.records)}")
    _note(f"median value={_fmt(report.median_value)} "
          f"green={_fmt(report.median_green)} red={_fmt(report.median_red)}")
    _note(f"best split={_fmt(report.best_split)} "
          f"composite bound={_fmt(report.composite_bound)} "
          f"holds={report.composite_holds}")
    return ["sure split inequality violated"] if report.violations else []


def _cmd_oracle(args) -> list[str]:
    vectors = int(_get(args, "trials"))
    if vectors < 1:
        raise CliError(f"oracle needs at least one vector (--trials >= 1), "
                       f"got {vectors}", EXIT_USAGE)
    checks = oracles.oracle_suite(vectors=vectors, master_seed=_seed(args))
    if _get(args, "format") == "json":
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
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
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
