"""Benchmark for osglines: four workloads, every output checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from any directory; the package is imported from `src/` beside this
directory, never from an installed copy.  A run sets up, makes one untimed
warm-up pass, then repeats timed passes over the workload's operations until
`--seconds` have passed (at least MIN_PASSES passes), checking every output.
It prints a record line (environment, parameters, exact counts, error rate,
unscaled times) and, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`.  See README.md in
this directory.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Temporary files, exact counts of earlier runs, and span dumps; gitignored.
STATE_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
SETUP_PROBES = 5
# A shared machine's speed can drift by a factor of two within seconds, for
# CPU time as much as for wall time.  Every timing is therefore scaled by
# CAL_REF_S / (the calibration loop's time around it), with calibrations
# at least every CAL_INTERVAL_S between operations and at the end of each
# pass.  CAL_REF_S is the loop's time on an idle 2-core x86-64 VM under
# Python 3.11, so scaled seconds read as seconds on that machine.
CAL_REF_S = 0.0025
CAL_INTERVAL_S = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "table", "query", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up from a fresh interpreter")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "osglines" / "__init__.py").is_file():
        print(f"perfbench: no osglines package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the run, its set-up children and the CLI children, so the
    # calibrations measure the core that does the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    STATE_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=STATE_DIR)
    try:
        if args.setup_probe:
            print(setup_probe(args, tmp))
            return 0
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def calibrate() -> float:
    """Median of five timings of a fixed stdlib-only loop: the current speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x, d = Fraction(0), {}
        for i in range(1, 1000):
            x += Fraction(i % 7 + 1, i % 11 + 1)
            d[i % 97] = d.get(i % 97, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Scale factors from calibrations taken between operations."""

    def __init__(self):
        self.last = calibrate()
        self.at = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.at >= CAL_INTERVAL_S

    def tick(self) -> float:
        """Calibrate; return the scale for the operations since the last tick."""
        now = calibrate()
        scale = 2 * CAL_REF_S / (self.last + now)
        self.last, self.at = now, time.perf_counter()
        return scale


def setup_probe(args, tmp) -> float:
    """Scaled seconds from before `import osglines` to the end of set-up."""
    clock = SpeedClock()
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, tmp, Tracer()).setup()
    took = time.perf_counter() - start
    return took * clock.tick()


def measure_setup(args) -> list[float]:
    """Set up several times, each in a fresh interpreter, as a run does once."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_pass(wl, tracer, clock, index) -> dict:
    """One pass; each op is [kind, rid, seconds, scale]."""
    ops, failures, unscaled = [], [], 0
    for k, (kind, fn, check) in enumerate(wl.ops(index)):
        rid = f"{index}.{k}"
        tracer.begin_op(index, rid)
        start = time.perf_counter()
        try:
            value = fn()
        except Exception:
            value, error = None, traceback.format_exc()
        else:
            error = None
        end = time.perf_counter()
        tracer.end_op(kind, start, end)
        if error is None:
            try:
                check(value)
            except Exception:
                error = traceback.format_exc()
        ops.append([kind, rid, end - start, None])
        if error is not None:
            failures.append(f"pass {index} op {k} ({kind}): {error}")
        if clock.due():
            scale = clock.tick()
            for op in ops[unscaled:]:
                op[3] = scale
            unscaled = len(ops)
    scale = clock.tick()
    for op in ops[unscaled:]:
        op[3] = scale
    return {"index": index, "traced": tracer.enabled, "ops": ops,
            "failures": failures, "counts": dict(wl.counts)}


def sweep(p) -> float:
    return sum(seconds * scale for _, _, seconds, scale in p["ops"])


def source_hash(root: Path = SRC / "osglines", pattern: str = "*") -> str:
    """SHA-256 of the files under `root` that match `pattern`, with their names."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench_hash() -> str:
    """SHA-256 of the benchmark's own code, which generates the inputs."""
    return source_hash(Path(__file__).resolve().parent, "*.py")


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_counts(wl, passes, key) -> list[str]:
    """Exact counts must repeat across repeated passes and across runs."""
    first = passes[0]["counts"]
    problems = []
    if not wl.fresh_passes:
        problems += [f"pass {p['index']} counts {p['counts']} differ from pass 0 "
                     f"counts {first}" for p in passes[1:] if p["counts"] != first]
    state_path = STATE_DIR / "counts.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    if key in state:
        if state[key] != first:
            problems.append(f"counts {first} differ from {state[key]}, recorded by "
                            f"an earlier run of the same code and inputs")
    else:
        state[key] = first
        scratch = state_path.with_suffix(".tmp")
        scratch.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(scratch, state_path)
    return problems


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation); the value itself if single."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, setup_times, passes) -> dict:
    # Each statistic is taken per pass, then the median over passes, so a
    # burst of slowness on a shared machine moves few of the samples.
    times = [[seconds * scale for _, _, seconds, scale in p["ops"]] for p in passes]
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "cli"
                             else resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "sweep_s": statistics.median(map(sum, times)),
        "op_p50_ms": 1000 * statistics.median(map(statistics.median, times)),
        "op_p95_ms": 1000 * statistics.median(quantile(t, 95) for t in times),
        "peak_rss_mb": rss / 1024,
    }


def per_layer(workloads, tracer, passes, scale, counts) -> dict:
    totals, self_times, durations = summarize(tracer.spans, scale)
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]

    def per_pass(table, key):
        # Calls made in set-up count once, on top of the median traced pass.
        return table["setup"].get(key, 0.0) + statistics.median(
            table[p["index"]].get(key, 0.0) for p in traced)

    out = {}
    for name in workloads.CALLS:
        out[name + ".s"] = per_pass(totals, name)
    for name in workloads.LATENCY_CALLS:
        took = durations.get(name)
        out[name + ".p50_ms"] = 1000 * statistics.median(took) if took else 0.0
        out[name + ".p99_ms"] = 1000 * quantile(took, 99) if took else 0.0
    for layer in workloads.LAYERS:
        out[layer + ".self_s"] = per_pass(self_times, layer)
    for name in workloads.COUNTS:
        out[name] = counts.get(name, 0)
    constraints = counts.get("certify.constraints", 0)
    out["certify.fm_row_ratio"] = (counts.get("certify.peak_working_rows", 0)
                                   / constraints if constraints else 0.0)
    out["trace.overhead_pct"] = 100 * (
        statistics.median(map(sweep, traced))
        / statistics.median(map(sweep, untraced)) - 1)
    out["trace.spans"] = statistics.median(
        sum(1 for s in tracer.spans if s[5] == p["index"]) for p in traced)
    return out


def run(args, tmp) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = measure_setup(args)
    import workloads
    if Path(workloads.osg.__file__).resolve().parent != SRC / "osglines":
        raise RuntimeError(f"imported osglines from {workloads.osg.__file__}, "
                           f"not from {SRC}")
    tracer = Tracer(enabled=bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](args.seed, tmp, tracer)
    clock = SpeedClock()
    wl.setup()
    setup_scale = clock.tick()
    # Pass 0 fills the package's caches; it is checked but not timed.
    tracer.enabled = False
    warmup = run_pass(wl, tracer, clock, 0)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        # Traced runs alternate traced and untraced passes, to measure overhead.
        tracer.enabled = bool(args.trace) and len(passes) % 2 == 0
        gc.collect()
        passes.append(run_pass(wl, tracer, clock, len(passes) + 1))
    tracer.enabled = False

    checked = [warmup] + passes
    failures = [f for p in checked for f in p["failures"]]
    attempted = sum(len(p["ops"]) for p in checked)
    # The benchmark's own code is in the key too: it generates the inputs.
    key = "|".join([args.workload, json.dumps(wl.params, sort_keys=True),
                    source_hash(), bench_hash(),
                    str(args.seed) if wl.fresh_passes else "*"])
    problems = check_counts(wl, checked, key)
    for message in (failures + problems)[:20]:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    if args.trace:
        scale = {rid: s for p in passes for _, rid, _, s in p["ops"]}
        scale[None] = setup_scale
        values = per_layer(workloads, tracer, passes, scale, warmup["counts"])
        spans_file = STATE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file, scale)
        wanted = manifest["per_layer"]
    else:
        values = end_to_end(wl, setup_times, passes)
        spans_file = None
        wanted = manifest["end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "python": platform.python_version(),
        "git_revision": git_revision(), "source_sha256": source_hash(),
        "bench_sha256": bench_hash(),
        "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
        "params": wl.params,
        "passes": len(passes), "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted, "counts": warmup["counts"],
        "setup_samples_s": setup_times,
        "pass_sweeps_s": [sweep(p) for p in passes],
        "unscaled_pass_sweeps_s": [sum(op[2] for op in p["ops"]) for p in passes],
        "count_problems": problems,
        "spans_file": str(spans_file) if spans_file else None,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
