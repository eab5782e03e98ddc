"""One benchmark run: inputs, set-up probes, warm-up, closed loop, checks, report.

The workload's inputs are generated from the seed, set-up is timed in
fresh processes, and the closed loop of operations runs whole cycles, so
that every run sees the workload's full mix, until the cycle boundary
nearest to ``seconds`` of operation time, after at least the workload's
``min_cycles``. Peak memory is read
when the loop ends; then the targeted + market scenarios run once to
report the known defect (see ``workloads.probe_market_attacks``), and
every output is checked by ``oracles``. A
calibration burst runs in a worker process (see ``calibrate``) between
operations and around each set-up probe; end-to-end times are scaled by
it to nominal machine speed, and the raw figures are reported beside them.

Without tracing the result carries the end-to-end metrics. With tracing
the same operations run twice, untraced and then traced, and the result
carries the per-layer metrics and the tracing overhead. The last line of
standard output is the JSON result; the lines before it are a readable
report. Details and spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import calibrate
import fdilab
import oracles
import spans
import workloads

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
PER_LAYER_UNITS = {"attack.feasible_ratio": "ratio"}
# Operation time that may pass between two calibration bursts.
CALIBRATION_EVERY_S = 0.5
# An operation is scaled by the mean of this many bursts, half before and half
# after it: one burst is too noisy, the run's mean misses drift within the run.
CALIBRATION_WINDOW = 8


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail(samples) -> str:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            return f"p{q:g} {percentile(samples, q):.6g}"
    return "no percentile has 10 samples beyond it"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "openblas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def probe_setup(src: Path, network_path: Path, meters_path: Path, calibrator) -> tuple[list[float], list[float], list[float]]:
    """Fresh processes that import fdilab and build the model: their wall times,
    the calibration bursts run before and after each, and their import times."""
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = Path(__file__).with_name("setup_probe.py")
    walls, bursts, imports = [], [calibrator.burst()], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(probe), str(network_path), str(meters_path)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(doc["fdilab"]).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"set-up probe imported fdilab from {doc['fdilab']}")
        imports.append(doc["import_s"])
        bursts.append(calibrator.burst())
    return walls, bursts, imports


def measure(workload, inputs, model, seconds=None, max_ops=None, tracer=None, calibrator=None):
    """Closed loop over the op stream: stop at the cycle boundary nearest to
    ``seconds`` of op time, but not before ``workload.min_cycles`` cycles, or
    after exactly ``max_ops`` operations. Nearest, not
    first after: a cycle that takes about ``seconds`` then ends the run whether
    the machine is a little faster or slower, so the number of cycles, and with
    it the mix of operations, does not flip between runs. Returns the
    unchecked results and the calibration bursts run between operations; with a
    calibrator, each result's ``burst_s`` is the mean of the CALIBRATION_WINDOW
    bursts around it, so each operation is scaled by the machine speed of its moment."""
    burst = calibrator.burst if calibrator is not None else lambda: None
    results, bursts, marks = [], [burst()], []
    busy = since_burst = cycle_start = 0.0
    for cycle, op in workloads.op_stream(workload, inputs):
        if max_ops is not None:
            if len(results) >= max_ops:
                break
        elif results and cycle != results[-1].cycle:
            last_cycle, cycle_start = busy - cycle_start, busy
            if cycle >= workload.min_cycles and busy + last_cycle / 2 >= seconds:
                break
        if tracer is not None:
            tracer.op = len(results)
        result = workloads.execute(op, workload, inputs, model)
        result.cycle = cycle
        results.append(result)
        marks.append(len(bursts) - 1)
        busy += result.seconds
        since_burst += result.seconds
        if since_burst >= CALIBRATION_EVERY_S:
            bursts.append(burst())
            since_burst = 0.0
    bursts.append(burst())
    if calibrator is not None:
        for result, i in zip(results, marks):
            half = CALIBRATION_WINDOW // 2
            result.burst_s = statistics.fmean(bursts[max(0, i + 1 - half) : i + 1 + half])
    return results, bursts


def warm_up(work_dir: Path, cases_dir: Path) -> None:
    """One operation of every family and kind on the bundled case, so lazy imports
    and first-call initialisation happen before timing."""
    small = workloads.WORKLOADS["mc-5bus"]
    inputs = workloads.prepare(small, 0, work_dir, cases_dir)
    model = workloads.Model(inputs.case)
    todo = {"mc", "attack", *workloads.PIPELINE_KINDS}
    for _, op in workloads.op_stream(small, inputs):
        key = getattr(op, "kind", "mc" if isinstance(op, workloads.McOp) else "attack")
        if key in todo:
            todo.discard(key)
            workloads.check(workloads.execute(op, small, inputs, model), inputs.case)
        if not todo:
            break


def family_shares(results) -> dict[str, float]:
    """Each operation family's share of the operation time."""
    busy = Counter()
    for r in results:
        busy[r.family] += r.seconds
    total = sum(busy.values())
    return {family: t / total for family, t in busy.most_common()}


def end_to_end(results, bursts, setup_walls, setup_bursts, nominal, peak_rss_mb) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics, with times scaled to nominal machine speed (see ``calibrate``),
    and the raw times."""
    mc = [r for r in results if r.family == "mc"]
    attacks = [r for r in results if r.family == "attack"]
    pipeline = [r for r in results if r.family == "pipeline"]
    mc_time = [r.seconds for r in mc]
    attack_time = [r.seconds for r in attacks]

    def scaled(r):
        return r.seconds * nominal / r.burst_s

    def pipeline_p50(time_of):
        return statistics.median(time_of(r) if not r.failed else math.inf for r in pipeline)

    setup_scale = nominal / statistics.fmean(setup_bursts)
    trials = sum(r.trials for r in mc)
    failed = sum(r.failed for r in results)
    raw = {
        "setup_s": statistics.median(setup_walls),
        "mc_trials_per_s": trials / sum(mc_time),
        "pipeline_s_p50": pipeline_p50(lambda r: r.seconds),
        "attacks_per_s": len(attacks) / sum(attack_time),
    }
    values = {
        "setup_s": (raw["setup_s"] * setup_scale, "s"),
        "mc_trials_per_s": (trials / sum(map(scaled, mc)), "trials/s"),
        "pipeline_s_p50": (pipeline_p50(scaled), "s"),
        "attacks_per_s": (len(attacks) / sum(map(scaled, attacks)), "attempts/s"),
        "ops_ok_ratio": ((len(results) - failed) / len(results), "ok/attempted"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        f"machine speed: calibration burst {statistics.fmean(bursts) * 1e3:.3f} ms mean of {len(bursts)} "
        f"(nominal {nominal * 1e3:g} ms); each operation's time below is scaled to nominal speed by the "
        f"bursts around it, raw in []",
        f"setup_s: {values['setup_s'][0]:.6g} s [{raw['setup_s']:.6g}], median of {len(setup_walls)} fresh processes",
        f"mc_trials_per_s: {values['mc_trials_per_s'][0]:.6g} trials/s [{raw['mc_trials_per_s']:.6g}], "
        f"{trials} trials in {len(mc)} calls; raw call time p50 {statistics.median(mc_time):.6g} s, {tail(mc_time)}",
        f"pipeline_s_p50: {values['pipeline_s_p50'][0]:.6g} s [{raw['pipeline_s_p50']:.6g}], {len(pipeline)} "
        f"scenarios, a failed one counts as inf; raw {tail([r.seconds if not r.failed else math.inf for r in pipeline])}",
        f"attacks_per_s: {values['attacks_per_s'][0]:.6g} attempts/s [{raw['attacks_per_s']:.6g}], "
        f"{len(attacks)} attempts; raw attempt time p50 {statistics.median(attack_time):.6g} s, {tail(attack_time)}",
        f"ops_ok_ratio: {values['ops_ok_ratio'][0]:.6g}, {len(results) - failed} ok of {len(results)} "
        f"attempted (ops_failed_ratio {failed / len(results):.6g})",
        f"peak_rss_mb: {values['peak_rss_mb'][0]:.6g} MB, read before any output check",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, raw, lines


def per_layer(tracer, untraced, traced, import_times) -> tuple[dict, list[str]]:
    values = {"import_s": statistics.median(import_times)}
    values.update(spans.summarize(tracer.spans))
    extra = sum(r.seconds for r in traced) - sum(r.seconds for r in untraced)
    values["trace.overhead_s"] = extra / len(traced)
    metrics = {}
    for name, value in values.items():
        unit = PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"per-layer times are totals over {len(traced)} traced operations and the targeted+market scenarios "
        f"({len(tracer.spans)} spans); "
        f"attack.feasible_ratio is over {values['attack.attempts']} synthesis calls; "
        f"trace.overhead_s is traced minus untraced time per operation"
    )
    return metrics, lines


def first_cycle_digest(results) -> tuple[str, int]:
    """sha256 over the report digests of the first cycle, which every run of a seed completes."""
    digests = [r.digest for r in results if r.cycle == 0 and r.digest is not None]
    return hashlib.sha256("".join(digests).encode()).hexdigest(), len(digests)


def run(root: Path, out: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload from the checkout at ``root``, writing details under ``out``."""
    src = root / "src"
    cases_dir = root / "cases" / "5bus"
    if not Path(fdilab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: fdilab was imported from {fdilab.__file__}, not {src}", file=sys.stderr)
        return 2
    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="critical meters excluded")
    workload = workloads.WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work_dir = out / f"{tag}-inputs"
    out.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.prepare(workload, seed, work_dir, cases_dir)
        with calibrate.Calibrator(workload.calibration) as calibrator:
            setup_walls, setup_bursts, import_times = probe_setup(
                src, work_dir / "network.json", work_dir / "meters.json", calibrator
            )
            warm_up(work_dir / "warm-up", cases_dir)
            model = workloads.Model(inputs.case)
            untraced, bursts = measure(workload, inputs, model, seconds=seconds, calibrator=calibrator)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = list(untraced)
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, _ = measure(workload, inputs, model, max_ops=len(untraced), tracer=tracer)
                tracer.op = len(traced)
                probed, probe_problems = workloads.probe_market_attacks(inputs)
            finally:
                tracer.uninstall()
            results += traced
        else:
            probed, probe_problems = workloads.probe_market_attacks(inputs)
        for r in results:
            workloads.check(r, inputs.case)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    clean_mc = [r for r in untraced if r.family == "mc" and r.kind == "clean" and not r.error]
    run_problems = oracles.false_positive_problems(
        sum(r.alarms for r in clean_mc), sum(r.trials for r in clean_mc), workloads.CONFIDENCE
    )
    problems = Counter(p for r in results for p in r.problems) + Counter(run_problems + probe_problems)
    defect = sum(r.error is not None and r.error.startswith(workloads.KNOWN_DEFECT) for r in probed)
    errors = Counter(r.error.split(":")[0] for r in results if r.error)
    digest, reports = first_cycle_digest(untraced)
    shares = family_shares(untraced)
    raw = {}
    if trace:
        metrics, lines = per_layer(tracer, untraced, traced, import_times)
        tracer.write_jsonl(out / f"{tag}.spans.jsonl.gz")
    else:
        metrics, raw, lines = end_to_end(
            untraced, bursts, setup_walls, setup_bursts, calibrate.NOMINAL_S[workload.calibration], peak_rss_mb
        )
    env = environment()
    report = [
        f"workload {name} seed {seed} trace {int(trace)}",
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
        "op time share: " + ", ".join(f"{family} {share:.1%}" for family, share in shares.items()),
        *lines,
        f"errors: {dict(errors) or 'none'}",
        f"check problems: {dict(problems) or 'none'}",
        f"known defect (ROADMAP item 4): {defect} of {len(probed)} targeted+market scenarios, run once after "
        f"the loop and not counted in attempted, raise {workloads.KNOWN_DEFECT} ... < 0",
        f"first-cycle report sha256 {digest} over {reports} text+CSV reports",
    ]
    result = {
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }
    detail = dict(
        result, raw_metrics=raw, op_time_share=shares, env=env, report=report, first_cycle_sha256=digest,
        market_attacks=[[op.path.name, r.error] for op, r in zip(inputs.market_attacks, probed)],
        report_sha256=[r.digest for r in untraced if r.digest is not None],
        ops=[[r.family, r.kind, r.seconds, r.burst_s, r.feasible, r.error] for r in untraced],
    )
    (out / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("\n".join(report))
    print(json.dumps(result))
    return 0
