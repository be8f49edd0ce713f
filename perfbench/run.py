"""Benchmark for degen: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs untraced and traced passes in turn and reports the
per-layer metrics (self time, calls and exact counters of each layer, for one
set-up plus one pass) and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Times are scaled to a reference host speed (see ``speed.py``).

Exit codes: 0 measured and correct; 1 some output was wrong (the result is
still printed, with ``correct`` false); 3 the benchmark could not run (no
program sources, a missing reference, a wrapper that never fired, counters
that did not repeat), and no result is printed.

Workloads, metrics and the count baseline are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"

import spans  # noqa: E402  (sibling modules of this script)
import speed  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated and its median reported: at least MIN_SETUPS times, more
# while the total stays under SETUP_BUDGET_S, so cheap set-ups get many samples.
MIN_SETUPS = 3
MAX_SETUPS = 60
SETUP_BUDGET_S = 2.0
# Every run makes two passes at least, so the exact counters can be compared.
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "completed_share": "ratio",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}

EXIT_WRONG = 1
EXIT_UNUSABLE = 3


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class Pass:
    wall: float  # seconds spent in items, calibration excluded
    samples: list[float]  # seconds per unit of work, one per item
    outcomes: list
    probe: speed.Probe


def fresh_import():
    """Import the program from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "degen" or n.startswith("degen.")]:
        del sys.modules[name]
    return workloads.modules()


def set_up(wl):
    times, probe = [], speed.Probe()
    while len(times) < MIN_SETUPS or (
        sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS
    ):
        gc.collect()
        t0 = perf_counter()
        mods = fresh_import()
        built = wl.build(mods)
        times.append(perf_counter() - t0)
        probe.after(times[-1])
    where = Path(mods.cli.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise BenchError(f"degen was imported from {where}, not from {SRC}")
    return mods, built, times, probe


def run_pass(wl, mods, items, tracer=None) -> Pass:
    gc.collect()
    p = Pass(0.0, [], [], speed.Probe())
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t0 = perf_counter()
        got = wl.run(mods, item)
        dt = perf_counter() - t0
        p.probe.after(dt)
        p.wall += dt
        p.samples.append(dt / item.units)
        p.outcomes.append(got)
    return p


def scale(passes: list[Pass]) -> float:
    return speed.scale([t for p in passes for t in p.probe.times])


def tally(items, p: Pass) -> Counter:
    """Exact counts of one pass: work, outcomes and Todd-Coxeter counters."""
    t = Counter()
    for item, got in zip(items, p.outcomes):
        t["attempted"] += item.units
        t["failed"] += item.units if got.failed else 0
        t["decided"] += got.decided_units
        if got.pipeline is not None:
            t[f"pipeline.{got.pipeline}"] += 1
        if got.error is not None:
            t[f"error.{got.error}"] += 1
        t.update(got.tc)
    return t


def check_passes(wl, items, passes: list[Pass]) -> tuple[list[str], Counter]:
    """Oracle problems over all passes, and the per-pass tally (which must repeat)."""
    problems = []
    for p in passes:
        for item, got in zip(items, p.outcomes):
            problem = wl.check(item, got)
            if problem is not None:
                problems.append(f"{item.id}: {problem}")
    tallies = [tally(items, p) for p in passes]
    for k, t in enumerate(tallies[1:], 2):
        if t != tallies[0]:
            raise BenchError(f"pass {k} counted {dict(t)}, pass 1 {dict(tallies[0])}")
    return problems, tallies[0]


# A percentile is reported as the mean of the samples ranked within this many
# percentage points of it.  Catalog's median falls between a cluster of cases
# near 28 ms and one near 44 ms, and its heaviest cases differ by a few ms;
# a single order statistic then follows whichever case the host slowed most
# in that run, and spread up to 16% between runs where the band spread 12%.
BAND = 5


def percentile_ms(samples: list[float], q: int) -> float:
    ranked = sorted(samples)
    lo = int(len(ranked) * (q - BAND) / 100)
    hi = max(lo + 1, int(len(ranked) * (q + BAND) / 100) + 1)
    return statistics.fmean(ranked[lo:hi]) * 1e3


def end_to_end(setups, setup_probe, passes: list[Pass], per_pass: Counter):
    k = scale(passes)
    samples = [s * k for p in passes for s in p.samples]
    return {
        "setup_s": statistics.median(setups) * setup_probe.scale(),
        "items_per_s": per_pass["attempted"] * len(passes) / (sum(p.wall for p in passes) * k),
        "item_p50_ms": percentile_ms(samples, 50),
        "item_p90_ms": percentile_ms(samples, 90),
        "completed_share": 1 - per_pass["failed"] / per_pass["attempted"],
        "decided_share": per_pass["decided"] / per_pass["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, tracer, per_pass: Counter, untraced, traced):
    """Per-layer metrics for one set-up plus one pass (times averaged over passes)."""
    setup = tracer.summary("setup")
    passes = [tracer.summary(f"pass{k}") for k in range(1, len(traced) + 1)]
    exact = ("calls", "relators", "classes", "candidates")
    for k, s in enumerate(passes[1:], 2):
        for name in set(s) | set(passes[0]):
            for field in exact:
                if s[name][field] != passes[0][name][field]:
                    raise BenchError(f"{name} {field} differs between traced passes 1 and {k}")
    fired = {n for phase in (setup, passes[0]) for n, e in phase.items() if e["calls"]}
    if missing := wl.expected_spans - fired:
        raise spans.TracingError(f"wrappers never fired on {wl.name}: {sorted(missing)}")
    k = scale(traced)

    def v(name, field="self_s"):
        value = setup[name][field] + statistics.fmean(p[name][field] for p in passes)
        return value * k if field == "self_s" else int(value)

    # an item that fails after enumerating (PipelineError) reports no verdict
    calls, runs = v("fpgroup.todd_coxeter", "calls"), per_pass["todd_coxeter_runs"]
    if calls < runs or (calls > runs and not per_pass["failed"]):
        raise BenchError(f"{calls} wrapped todd_coxeter calls but {runs} verdicts enumerated")
    defined, live = per_pass["cosets_defined"], per_pass["live_cosets"]
    candidates = v("enumerator.enumerate_maps", "candidates")
    base = statistics.fmean(p.wall for p in untraced) * scale(untraced)
    overhead = statistics.fmean(p.wall for p in traced) * k - base
    return {
        "fpgroup.todd_coxeter_s": v("fpgroup.todd_coxeter"),
        "fpgroup.todd_coxeter_calls": v("fpgroup.todd_coxeter", "calls"),
        "fpgroup.cosets_defined": defined,
        "fpgroup.live_cosets": live,
        "fpgroup.coincidences": per_pass["coincidences"],
        "fpgroup.live_per_defined": live / defined if defined else 0.0,
        "complexes.validate_s": v("complexes.validate"),
        "complexes.validate_calls": v("complexes.validate", "calls"),
        "complexes.classify_vertices_s": v("complexes.classify_vertices"),
        "complexes.classify_vertices_calls": v("complexes.classify_vertices", "calls"),
        "complexes.edge_planes_calls": v("complexes.edge_planes", "calls"),
        "relations.reduced_presentation_s": v("relations.reduced_presentation"),
        "relations.reduced_presentation_calls": v("relations.reduced_presentation", "calls"),
        "relations.relators_built": v("relations.reduced_presentation", "relators"),
        "pipeline.decide_self_s": v("pipeline.decide"),
        "pipeline.propagate_equalities_s": v("pipeline.propagate_equalities"),
        "pipeline.fork_certificate_s": v("pipeline.fork_certificate"),
        **{f"pipeline.{o}": per_pass[f"pipeline.{o}"]
           for o in ("trivial", "nontrivial", "undecided", "refused", "failed")},
        "catalog.read_s": v("catalog.open_catalog") + v("catalog.load"),
        "catalog.cases_read": v("catalog.load", "calls"),
        "invariants.branch_stats_s": v("invariants.branch_stats"),
        "invariants.chern_s": v("invariants.chern"),
        "enumerator.enumerate_maps_s": v("enumerator.enumerate_maps"),
        "enumerator.candidates": candidates,
        "enumerator.canonical_form_s": v("enumerator.canonical_form"),
        "enumerator.canonical_form_calls": v("enumerator.canonical_form", "calls"),
        "enumerator.classes_per_candidate": (
            v("enumerator.enumerate_maps", "classes") / candidates if candidates else 0.0
        ),
        "enumerator.embed_s": v("enumerator.embed"),
        "enumerator.embed_calls": v("enumerator.embed", "calls"),
        "cli.main_self_s": v("cli.main"),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / base,
        "trace.spans": tracer.span_count("setup") + tracer.span_count("pass1"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_defined", "_per_candidate")):
        return "ratio"
    return "count"


def baseline_diff(name: str, metrics: dict, units: dict) -> str:
    """Compare the exact counts with those recorded when the benchmark was added."""
    if not BASELINE.is_file():
        return "counts vs baseline.json: no baseline recorded"
    recorded = json.loads(BASELINE.read_text(encoding="utf-8")).get(name, {})
    counts = {k: v for k, v in metrics.items() if units[k] == "count"}
    diffs = [f"{k} {recorded.get(k)} -> {v}" for k, v in counts.items() if recorded.get(k) != v]
    return "counts vs baseline.json: " + ("; ".join(diffs) if diffs else "all equal")


def measure(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    wl = workloads.WORKLOADS[name]()
    os.environ.pop("DEGEN_CATALOG_DIR", None)
    mods, built, setups, setup_probe = set_up(wl)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        items = wl.prepare(mods, built, random.Random(seed) if seed else None, Path(workdir))
        if seed:
            random.Random(seed).shuffle(items)
        untraced, traced = [], []
        tracer = spans.Tracer()
        if trace:
            tracer.phase = "setup"
            tracer.install()
            try:
                wl.build(mods)
            finally:
                tracer.uninstall()
        start = perf_counter()
        while len(untraced) < MIN_PASSES or perf_counter() - start < seconds:
            spans.assert_clean()
            untraced.append(run_pass(wl, mods, items))
            if trace:
                tracer.phase = f"pass{len(traced) + 1}"
                tracer.install()
                try:
                    traced.append(run_pass(wl, mods, items, tracer))
                finally:
                    tracer.uninstall()
    problems, per_pass = check_passes(wl, items, untraced + traced)
    if trace:
        metrics = per_layer(wl, tracer, per_pass, untraced, traced)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(setups, setup_probe, untraced, per_pass)
        units = END_TO_END
    n = len(untraced) + len(traced)
    result = {
        "correct": not problems,
        "attempted": per_pass["attempted"] * n,
        "failed": per_pass["failed"] * n,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    notes = [
        f"{name}: seed {seed}, {len(untraced)} untraced and {len(traced)} traced passes,"
        f" {len(setups)} set-ups, {sum(len(p.samples) for p in untraced)} latency samples",
        "pass seconds (measured): " + " ".join(f"{p.wall:.3f}" for p in untraced + traced),
        f"host speed: set-up x{setup_probe.scale():.3f}, passes x{scale(untraced):.3f}"
        " (reference seconds per measured second)",
        "per pass: " + ", ".join(f"{k}={v}" for k, v in sorted(per_pass.items())),
        f"failed_share = {per_pass['failed']}/{per_pass['attempted']}",
    ]
    notes += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    if trace:
        notes.append(baseline_diff(name, metrics, units))
    notes += [f"WRONG {p}" for p in problems[:20]]
    return result, notes


def run_all(args) -> int:
    """Each workload in its own process, serially; prints every metric."""
    code = 0
    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if proc.returncode in (0, EXIT_WRONG) and lines:
            combined[name] = json.loads(lines[-1])
    if combined:
        print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "degen" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'degen'}", file=sys.stderr)
        return EXIT_UNUSABLE
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, spans.TracingError, workloads.OracleError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE
    print("\n".join(notes))
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_WRONG


if __name__ == "__main__":
    sys.exit(main())
