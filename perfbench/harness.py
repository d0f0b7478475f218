"""Measure minweight end to end, check its records, and trace its layers.

The end-to-end path is the one the CLI uses: `montecarlo.run(config)`
followed by `cli.render_csv(records)`.  The benchmark changes nothing in
the program; it only replaces two names in `montecarlo` while it runs:

- `build_family` returns families built before timing starts, so family
  construction is charged to set-up (`setup_s`, `peak_rss_mb`) and not to
  every chunk;
- `stream` is wrapped to take a timestamp, because each trial starts with
  exactly one `rngs.stream` call.  Trial k lasts from its timestamp to the
  next one, the last trial of a run until `run` returns.

A `SpeedProbe` runs around every chunk and every set-up process, and each
time is scaled by the probes around it to a fixed machine speed; the report
also prints each time as measured.

A traced run (`--trace 1`) instead wraps every layer function listed in
`tracing.TARGETS`, runs a fixed number of chunks each untraced and traced,
and reports per-layer counts and times, the tracing overhead and the share
of traced wall time that no span covers.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import CATALOG, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SEED_STRIDE = 2**32
SETUP_REPS = 5
PROBE_REF_S = 0.02
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MODULES = ("rngs", "weights", "families", "patching", "dual", "montecarlo", "cli")

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import minweight.montecarlo as mc
import minweight.cli
for family, n in {families!r}:
    mc.build_family(family, n)
print(time.perf_counter() - t0)
"""


class ProgramMissing(Exception):
    """The checkout has no minweight sources to benchmark."""


def load_program() -> dict:
    """Import minweight from this checkout's src/ and return its modules."""
    if not (SRC / "minweight" / "__init__.py").is_file():
        raise ProgramMissing(f"no minweight package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"minweight.{m}") for m in MODULES}
    origin = Path(sys.modules["minweight"].__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"minweight was imported from {origin}, not {SRC}")
    return mods


@dataclass
class Outcome:
    """One `montecarlo.run` call of a chunk, with its rendered records."""

    label: str
    chunk: int
    config: object
    records: list | None
    digest: str | None
    durations: list[float] = field(default_factory=list)
    error: str | None = None

    @property
    def trials(self) -> int:
        return self.config.trials * len(self.config.sizes)


def make_config(mc, fields: dict, seed: int, chunk: int):
    return mc.ExperimentConfig(master_seed=seed + chunk * SEED_STRIDE, **fields)


def run_chunk(mods, workload: Workload, seed: int, chunk: int,
              stamps: list | None = None) -> list[Outcome]:
    """Run every config of one chunk; `stamps` holds trial-start times."""
    mc, cli = mods["montecarlo"], mods["cli"]
    out = []
    for label, fields in workload.configs:
        cfg = make_config(mc, fields, seed, chunk)
        if stamps is not None:
            stamps.clear()
        try:
            records = mc.run(cfg)
        except Exception as exc:  # a failed trial is counted, not fatal
            out.append(Outcome(label, chunk, cfg, None, None,
                               error=f"{type(exc).__name__}: {exc}"))
            continue
        end = perf_counter()
        text = cli.render_csv(records)
        outcome = Outcome(label, chunk, cfg, records,
                          hashlib.sha256(text.encode()).hexdigest())
        if stamps is not None:
            if len(stamps) != len(records):
                outcome.error = (f"{len(stamps)} rngs.stream calls for "
                                 f"{len(records)} trials")
            outcome.durations = [b - a for a, b in zip(stamps, stamps[1:] + [end])]
        out.append(outcome)
    return out


def violations(outcome: Outcome) -> int:
    """Trials of one run that break an invariant that holds surely."""
    cfg, records = outcome.config, outcome.records
    if outcome.error is not None or records is None or len(records) != outcome.trials:
        return outcome.trials
    bad = 0
    for rec in records:
        ell = rec.n - 1 if cfg.family == "trees" else rec.n
        ok = 0.0 < rec.value <= ell  # each weight lies in (0, 1]
        if cfg.kind == "dual" and cfg.r is not None:
            ok = ok and (rec.near_value <= cfg.budget) == (rec.defect <= cfg.r)
        if cfg.kind == "patch" and rec.component_cost is not None:
            ok = ok and rec.component_cost >= rec.patch_cost
        if cfg.kind == "split":
            ok = ok and rec.value <= rec.bound and rec.value <= rec.envelope_bound
        bad += not ok
    return bad


def fingerprint_check(workload: Workload, seed: int, outcomes: list[Outcome],
                      reference: dict) -> tuple[bool, list[str]]:
    """Compare chunk 0's record digests with the stored reference.

    Returns (mismatch, report lines).  Only the reference seed has stored
    digests; at any other seed only the invariants are checked.
    """
    digests = {o.label: o.digest for o in outcomes if o.chunk == 0}
    lines = [f"fingerprint {label} sha256={d}" for label, d in digests.items()]
    if seed != reference["seed"]:
        lines.append(f"fingerprint not checked: seed {seed} is not the reference "
                     f"seed {reference['seed']}; invariants only")
        return False, lines
    expected = reference["sha256"].get(workload.name, {})
    mismatch = digests != expected
    lines.append("fingerprint " + ("MISMATCH with" if mismatch else "matches")
                 + f" the reference at seed {seed}")
    return mismatch, lines


def tally(workload, seed, outcomes, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, report lines) over every trial of `outcomes`."""
    attempted = sum(o.trials for o in outcomes)
    failed = sum(violations(o) for o in outcomes)
    lines = [f"error in {o.label} chunk {o.chunk}: {o.error}"
             for o in outcomes if o.error]
    for label in dict.fromkeys(o.label for o in outcomes):
        runs = [o for o in outcomes if o.label == label and o.records]
        if runs and runs[0].config.kind == "dual":
            r = runs[0].config.r
            within = sum(rec.defect <= r for o in runs for rec in o.records)
            total = sum(len(o.records) for o in runs)
            lines.append(f"duality checked in {label}: {within} of {total} "
                         f"trials have defect <= r={r}")
    mismatch, fp_lines = fingerprint_check(workload, seed, outcomes, reference)
    if mismatch:
        failed = attempted
    return attempted, failed, lines + fp_lines


def build_families(mods, workload: Workload) -> dict:
    mc = mods["montecarlo"]
    return {key: mc.build_family(*key) for key in workload.families()}


def use_families(mods, families: dict):
    """Make `montecarlo.build_family` return the prebuilt families."""
    mc = mods["montecarlo"]
    original = mc.build_family
    mc.build_family = lambda family, n: families[(family, n)]
    return lambda: setattr(mc, "build_family", original)


def warm_up(mods, workload: Workload, seed: int) -> None:
    """One trial per config and size, untimed, so lazy set-up is done."""
    mc = mods["montecarlo"]
    for _, fields in workload.configs:
        mc.run(make_config(mc, {**fields, "trials": 1}, seed, 0))


class SpeedProbe:
    """Times a fixed mix of work that touches no minweight code.

    On a shared host the speed of every program drifts with the load of
    other tenants, by up to a third within minutes, and the probe's time
    drifts with it.  The mix has the three kinds of work the workloads do:
    sorting large arrays, interpreted loops over lists, and numpy calls on
    small arrays.  A time measured between two probes is multiplied by
    PROBE_REF_S / (mean of the two probe times), which gives the time on a
    machine where the probe takes PROBE_REF_S.
    """

    def __init__(self, np) -> None:
        rng = np.random.default_rng(0)
        self._np = np
        self._large = rng.random(80_000)
        self._small = rng.random((100, 100))

    def __call__(self) -> float:
        np = self._np
        start = perf_counter()
        np.argsort(self._large, kind="stable")
        np.argpartition(self._large, 4096)
        parent = list(range(4096))
        for i in range(30_000):
            a = i * 7919 % 4096
            while parent[a] != a:
                a = parent[a]
            b = i * 104729 % 4096
            if b < a:
                parent[a] = b
        pot = np.zeros(100)
        done = np.zeros(100, dtype=bool)
        for i in range(600):
            row = self._small[i % 100] + pot
            j = int(np.where(done, np.inf, row).argmin())
            done[j] = not done[j]
            pot += np.minimum(row, 0.5)
        return perf_counter() - start


def measure_setup(workload: Workload, reps: int,
                  probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Import plus family construction, in `reps` fresh processes.

    Returns the times as measured and scaled by the probes around each
    process.  One extra process runs first and is discarded, so that
    byte-code compilation of a new checkout is not counted.
    """
    code = SETUP_CHILD.format(src=str(SRC), families=workload.families())
    times, scaled = [], []
    before = probe()
    for rep in range(reps + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        after = probe()
        if rep:
            times.append(float(proc.stdout.split()[-1]))
            scaled.append(times[-1] * 2 * PROBE_REF_S / (before + after))
        before = after
    return times, scaled


def git_rev() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(mods, workload: Workload, seed: int, chunks: int) -> dict:
    np = mods["montecarlo"].np
    import scipy

    per_chunk = workload.trials_per_chunk()
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "chunks": chunks,
        "trials_per_chunk": per_chunk,
        "trials_per_config": {k: v * chunks for k, v in per_chunk.items()},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def timed_run(mods, workload, seed, seconds, reference, setup_reps):
    """End-to-end metrics; the program is not traced."""
    mc = mods["montecarlo"]
    probe = SpeedProbe(mc.np)
    setup, scaled_setup = measure_setup(workload, setup_reps, probe)
    restore = use_families(mods, build_families(mods, workload))
    real_stream = mc.stream
    stamps: list[float] = []

    def stamped_stream(*parts):
        stamps.append(perf_counter())
        return real_stream(*parts)

    try:
        warm_up(mods, workload, seed)
        mc.stream = stamped_stream
        outcomes: list[Outcome] = []
        busy = scaled_busy = 0.0
        scaled_ms: list[float] = []
        scales: list[float] = []
        before = probe()
        deadline = perf_counter() + seconds
        while not scales or perf_counter() < deadline:
            start = perf_counter()
            done = run_chunk(mods, workload, seed, len(scales), stamps)
            wall = perf_counter() - start
            after = probe()
            scale = 2 * PROBE_REF_S / (before + after)
            before = after
            busy += wall
            scaled_busy += wall * scale
            scaled_ms += [1e3 * scale * d for o in done for d in o.durations]
            scales.append(scale)
            outcomes += done
    finally:
        mc.stream = real_stream
        restore()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, lines = tally(workload, seed, outcomes, reference)
    ms = [1e3 * d for o in outcomes for d in o.durations]
    p50, p90 = percentiles(scaled_ms)
    above = sum(1 for v in scaled_ms if v > p90)
    raw_p50, raw_p90 = percentiles(ms)
    raw = {"trials_per_s": attempted / busy, "trial_ms_p50": raw_p50,
           "trial_ms_p90": raw_p90, "setup_s": statistics.median(setup)}
    metrics = {
        "trials_per_s": {"value": attempted / scaled_busy, "unit": "1/s"},
        "trial_ms_p50": {"value": p50, "unit": "ms"},
        "trial_ms_p90": {"value": p90, "unit": "ms"},
        "setup_s": {"value": statistics.median(scaled_setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    samples = {
        "trials_per_s": f"{attempted} trials in {len(scales)} chunks, "
                        f"{busy:.3f} s",
        "trial_ms_p50": f"{len(ms)} trials",
        "trial_ms_p90": f"{len(ms)} trials, {above} above",
        "setup_s": f"median of {len(setup)} fresh processes: "
                   + ", ".join(f"{t:.4f}" for t in scaled_setup),
        "peak_rss_mb": "1 process, as measured",
    }
    report = [f"{name:<14} {m['value']:>14.6f} {m['unit']:<4} ({samples[name]}"
              + (f"; {raw[name]:.6f} as measured)" if name in raw else ")")
              for name, m in metrics.items()]
    report.append(f"{'speed_scale':<14} {statistics.median(scales):>14.6f} "
                  f"{'1':<4} (median over chunks of {PROBE_REF_S} s / mean "
                  f"probe time before and after the chunk)")
    report.append(f"{'failed_frac':<14} {failed / attempted:>14.6f} {'1':<4} "
                  f"({failed} failed of {attempted} attempted)")
    return len(scales), attempted, failed, metrics, report + lines


def percentiles(ms: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def traced_run(mods, workload, seed, seconds, reference):
    """Per-layer metrics: a fixed number of chunks, each untraced and traced."""
    chunks = max(1, round(seconds / (2 * workload.chunk_seconds)))
    tracer = Tracer(mods)
    tracer.install()
    try:
        families = build_families(mods, workload)
    finally:
        tracer.uninstall()
    mark = len(tracer.spans)
    plain, traced = [], []
    wall = {False: 0.0, True: 0.0}
    restore = use_families(mods, families)
    try:
        warm_up(mods, workload, seed)
        # Each chunk runs untraced and traced back to back, in alternating
        # order, so that drift in machine speed does not bias the overhead.
        for c in range(chunks):
            for on in ((False, True) if c % 2 == 0 else (True, False)):
                if on:
                    tracer.install()
                try:
                    start = perf_counter()
                    outcomes = run_chunk(mods, workload, seed, c)
                    wall[on] += perf_counter() - start
                finally:
                    if on:
                        tracer.uninstall()
                (traced if on else plain).extend(outcomes)
    finally:
        restore()
    plain_wall, traced_wall = wall[False], wall[True]

    attempted, failed, lines = tally(workload, seed, traced, reference)
    differ = [f"{a.label} chunk {a.chunk}" for a, b in zip(plain, traced)
              if a.digest != b.digest]
    if differ:
        failed = attempted
        lines.append("traced records differ from untraced: " + ", ".join(differ))
    else:
        lines.append(f"traced records equal untraced records in all "
                     f"{len(traced)} runs")
    metrics = tracer.layer_metrics()
    overhead = traced_wall / plain_wall - 1.0
    uncovered = 1.0 - tracer.root_seconds(mark) / traced_wall
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.uncovered_frac"] = {"value": uncovered, "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    report = [f"traced {len(traced)} runs in {chunks} chunks: untraced "
              f"{plain_wall:.3f} s, traced {traced_wall:.3f} s, overhead "
              f"{overhead:.2%}, uncovered {uncovered:.2%}",
              f"{len(tracer.spans)} spans written to {spans_path}"]
    busy = sorted((m["value"], name[:-len(".self_ms")])
                  for name, m in metrics.items() if name.endswith(".self_ms"))
    for self_ms, layer in reversed(busy):
        if metrics[f"{layer}.calls"]["value"]:
            report.append(f"{layer:<48} calls {metrics[layer + '.calls']['value']:>7} "
                          f"ms {metrics[layer + '.ms']['value']:>10.2f} "
                          f"self_ms {self_ms:>10.2f}")
    return chunks, attempted, failed, metrics, report + lines


def parse_args(argv, catalog):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, catalog=CATALOG, reference=None, setup_reps=SETUP_REPS) -> int:
    args = parse_args(argv, catalog)
    try:
        mods = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    workload = catalog[args.workload]
    if args.trace:
        chunks, attempted, failed, metrics, report = traced_run(
            mods, workload, args.seed, args.seconds, reference)
    else:
        chunks, attempted, failed, metrics, report = timed_run(
            mods, workload, args.seed, args.seconds, reference, setup_reps)
    mode = "traced" if args.trace else "timed"
    print(f"perfbench {workload.name} seed={args.seed} mode={mode}")
    print("manifest " + json.dumps(manifest(mods, workload, args.seed, chunks)))
    for line in report:
        print("  " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
