"""coinrace benchmark: run one workload, check every output, print the metrics.

Run from the repository root:

    python3 perfbench/run.py --workload large-exact --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the working directory.  The last
line of stdout is the result object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it is a report with the run's stamp, sample
counts and per-stage medians.  With ``--trace 1`` the per-layer metrics are
printed instead of the end-to-end ones, and the spans are written to
``.perfbench/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import calibrate
import workloads
from spans import Tracer

# Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S have gone,
# and its median is reported: one import takes only tens of milliseconds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 30, 2.0
MIN_PASSES = 2  # a second pass repeats the first, so determinism is checked too
LIBRARY_MODULES = ("game", "stopping", "advantage", "minimize", "oracle", "tables", "cli", "simulate")

# Stage metrics: name -> (stage of the operations it sums, "s" or games per second).
STAGES = {
    "tables_s": ("tables", "s"),
    "verify_s": ("verify", "s"),
    "poly_s": ("poly", "s"),
    "minimize_s": ("minimize", "s"),
    "sim_games_per_s": ("sim_w1", "1/s"),
    "sim_games_per_s_w2": ("sim_w2", "1/s"),
}

# Per-layer metrics of the traced run, with units.  Self times are a span
# minus the part of it covered by the spans of the public calls it made.
LAYER_UNITS = {
    "game.normalize_s": "s",
    "stopping.build_s": "s",
    "stopping.pmf_terms": "count",
    "stopping.coeff_bits_max": "bits",
    "advantage.self_s": "s",
    "advantage.degree": "count",
    "advantage.coeff_bits_max": "bits",
    "minimize.self_s": "s",
    "minimize.asym_eval_s": "s",
    "oracle.enumerate_s": "s",
    "oracle.cases": "count",
    "tables.polynomial_s": "s",
    "tables.minimized_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "simulate.stream_games_per_s": "1/s",
    "simulate.turns_per_game": "turns",
    "simulate.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    seconds: float = 0.0  # wall time of the single-process operations, checks excluded
    scaled: float = 0.0  # the same at the reference speed (see calibrate.py)
    stages: dict = field(default_factory=dict)  # stage -> [scaled seconds, games]
    outputs: list = field(default_factory=list)  # kept for traced passes only
    failures: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this pass's wall seconds to seconds at the reference speed."""
        return self.scaled / self.seconds


def import_library(src: Path):
    """Import coinrace afresh from ``src`` and return its modules by name."""
    for name in [m for m in sys.modules if m == "coinrace" or m.startswith("coinrace.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = {m: importlib.import_module(f"coinrace.{m}") for m in LIBRARY_MODULES}
    if Path(lib["game"].__file__).resolve().parent != (src / "coinrace").resolve():
        raise ImportError(f"coinrace was imported from {lib['game'].__file__}, not {src}")
    return SimpleNamespace(**lib)


def run_pass(ops, clock: calibrate.Clock, keep_outputs: bool = False) -> Pass:
    record = Pass()
    for op in ops:
        out, error, wall, scaled = clock.time(op.call, calibrated=op.processes == 1)
        if error is not None:
            traceback.print_exception(error)
        try:
            ok = error is None and op.check(out)
        except Exception:  # a check that cannot run counts as a failed operation
            ok = False
            traceback.print_exc()
        if not ok:
            record.failures.append(op.label)
        if op.processes == 1:
            record.seconds += wall
            record.scaled += scaled
        stage = record.stages.setdefault(op.stage, [0.0, 0])
        stage[0] += scaled
        stage[1] += op.games
        if keep_outputs:
            record.outputs.append(out)
    return record


def stage_metrics(passes: list[Pass]) -> dict:
    out = {}
    for name, (stage, unit) in STAGES.items():
        values = [s if unit == "s" else games / s
                  for s, games in (p.stages[stage] for p in passes if stage in p.stages)]
        out[name] = statistics.median(values) if values else 0.0
    return out


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, when above the median."""
    n = len(values)
    if n - 10 <= n / 2:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def coefficient_stats(polys) -> tuple[int, int]:
    """(total coefficient count, largest coefficient bit length) over ``polys``."""
    terms = bits = 0
    for poly in polys:
        for c in getattr(poly, "coeffs", poly):
            terms += 1
            bits = max(bits, abs(c.numerator).bit_length())
    return terms, bits


def layer_metrics(tracer: Tracer, record: Pass) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = tracer.self_times()

    def total_self(name):
        return sum(t for s, t in zip(tracer.spans, selfs) if s.name == name)

    builds = [s.result for s in tracer.named("stopping.hit_time_distribution")]
    pmf_terms, pmf_bits = coefficient_stats(f for d in builds for f in d.pmf.values())
    advs = [s.result.poly for s in tracer.named("advantage.advantage_polynomial")]
    _, adv_bits = coefficient_stats(advs)
    m = {
        "game.normalize_s": tracer.total("game.normalize"),
        "stopping.build_s": tracer.total("stopping.hit_time_distribution"),
        "stopping.pmf_terms": pmf_terms,
        "stopping.coeff_bits_max": pmf_bits,
        "advantage.self_s": total_self("advantage.advantage_polynomial"),
        "advantage.degree": max((len(getattr(p, "coeffs", p)) - 1 for p in advs), default=0),
        "advantage.coeff_bits_max": adv_bits,
        "minimize.self_s": total_self("minimize.minimize_advantage"),
        "minimize.asym_eval_s": tracer.total("minimize.advantage_at_asymptotic"),
        "oracle.enumerate_s": tracer.total("oracle.brute_force_hit_pmf"),
        "oracle.cases": len(tracer.named("oracle.brute_force_hit_pmf")),
        "tables.polynomial_s": tracer.total("tables.polynomial_table"),
        "tables.minimized_s": tracer.total("tables.minimized_table"),
        "cli.self_s": total_self("cli.main"),
        "cli.stdout_bytes": sum(len(out[1].encode()) for out in record.outputs
                                if isinstance(out, tuple) and len(out) == 2),
    }
    # Simulator: games per second of in-process streams (workers=1 self time),
    # tosses per game from the turn histogram, and the speed-up of two workers.
    rates, trials, tosses = {}, 0, 0.0
    for span, t in zip(tracer.spans, selfs):
        if span.name != "simulate.simulate":
            continue
        config, result = span.args[0], span.result
        games, secs, self_secs = rates.get(config.workers, (0, 0.0, 0.0))
        rates[config.workers] = (games + result.trials, secs + span.duration, self_secs + t)
        trials += result.trials
        tosses += result.trials * sum(
            share * (2 * k - 1 if k > 0 else -2 * k) for k, share in result.turn_histogram.items())
    w1 = rates.get(1)
    w2 = rates.get(2)
    m["simulate.stream_games_per_s"] = w1[0] / w1[2] if w1 else 0.0
    m["simulate.turns_per_game"] = tosses / trials if trials else 0.0
    m["simulate.parallel_efficiency"] = (
        (w2[0] / w2[1]) / (2 * w1[0] / w1[1]) if w1 and w2 else 0.0)
    return m


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, clock: calibrate.Clock, seconds: float, traced: bool):
    """Run passes until ``seconds`` have gone (never starting one that would end
    more than half a pass late), alternating untraced and traced passes when
    ``traced``.  Returns (untraced passes, traced passes, per-layer samples)."""
    plain, with_trace, layers, spans = [], [], [], []
    start = time.perf_counter()
    unit = 0.0
    while True:
        unit_start = time.perf_counter()
        plain.append(run_pass(ops, clock))
        if traced:
            tracer = Tracer()
            with tracer.instrument():
                record = run_pass(ops, clock, keep_outputs=True)
            with_trace.append(record)
            layers.append({
                name: value * record.scale if LAYER_UNITS[name] == "s"
                else value / record.scale if LAYER_UNITS[name] == "1/s" else value
                for name, value in layer_metrics(tracer, record).items()
            })
            spans.append({"spans": tracer.to_json(), "metrics": layers[-1]})
        unit = time.perf_counter() - unit_start
        units = len(with_trace) if traced else len(plain)
        elapsed = time.perf_counter() - start
        if units >= (1 if traced else MIN_PASSES) and elapsed + unit / 2 >= seconds:
            return plain, with_trace, layers, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal input sizes, for tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "coinrace" / "__init__.py").is_file():
        print(f"error: no coinrace package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    size = "smoke" if args.smoke else "full"
    build, kernel = workloads.WORKLOADS[args.workload]

    def set_up():
        return build(import_library(src), root, args.seed, size)

    clock = calibrate.Clock(kernel)
    setups, setups_scaled = [], []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
        ops, error, wall, scaled = clock.time(set_up)
        if error is not None:
            raise error
        setups.append(wall)
        setups_scaled.append(scaled)

    plain, traced, layers, spans = measure(ops, clock, args.seconds, bool(args.trace))
    passes = plain + traced
    attempted = len(ops) * len(passes)
    failures = [label for p in passes for label in p.failures]
    pass_times = [p.scaled for p in plain]
    stamp = {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "trace": args.trace,
    }
    report = {
        "stamp": stamp,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_s": {"median": statistics.median(pass_times), "samples": len(pass_times),
                   "tail": tail_percentile(pass_times),
                   "wall_median": statistics.median(p.seconds for p in plain)},
        "setup_s": {"median": statistics.median(setups_scaled), "samples": len(setups),
                    "wall_median": statistics.median(setups)},
        "speed": statistics.median(p.scale for p in passes),
        "stages": stage_metrics(plain),
        "ops_failed_ratio": len(failures) / attempted,
        "failures": sorted(set(failures)),
    }

    if args.trace:
        metrics = {name: (statistics.median(m[name] for m in layers), unit)
                   for name, unit in LAYER_UNITS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(p.scaled for p in traced) - statistics.median(pass_times), "s")
        for name, value in report["stages"].items():
            metrics[name] = (value, "s" if STAGES[name][1] == "s" else "1/s")
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"stamp": stamp, "passes": spans}))
        report["trace_file"] = str(trace_file.relative_to(root))
    else:
        metrics = {
            "pass_s": (report["pass_s"]["median"], "s"),
            "setup_s": (report["setup_s"]["median"], "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
