"""fdmsim benchmark: one workload on the bundled chip7, measured end to end.

    python3 perfbench/run.py --workload bringup|rabi_noisy|telegraph \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
its `src/`.  The run is a closed loop with a single client: WORKERS fresh
worker processes (perfbench/worker.py), one at a time, each setting up
and then repeating the workload body until its share of --seconds is
used.  Every output is checked outside the timed region and every
iteration is fingerprinted; all fingerprints of one invocation must
agree.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (medians over workers and iterations):

    setup_s      worker interpreter start until the workload is ready
                 (import fdmsim.cli, load_chip + config_hash,
                 make_readout_setup)
    wall_s       host time of one workload body
    peak_rss_mb  the worker's own ru_maxrss

With --trace 1 every other iteration runs traced and the metrics are the
per-layer ones: self time and counts per layer, averaged per traced
iteration, plus the import times from `-X importtime`, the tracing
overhead (traced against untraced iterations of the same workers) and
the time no span covers.  The lines before the last give
the machine, sample counts, the fingerprint and the oracle deviations.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# Fresh workers per run: each gives one set-up sample and one RSS sample.
WORKERS = 4
# Timings are scaled by a yardstick timed in the same worker: host
# seconds * YARDSTICK_REF_S / yardstick seconds.  The machine this was
# built on switches between speed states about 1.7x apart for minutes
# at a time; unscaled medians of 30 s windows spread by 15-21%, scaled
# ones by 2.5-4.5%.  YARDSTICK_REF_S only fixes the unit: it is near the
# yardstick's host time there (2 cores of an Intel Xeon at 2.1 GHz).
YARDSTICK_REF_S = 0.04
# Seconds a worker may run past its deadline before the run is abandoned.
WORKER_GRACE_S = 60.0
# Workers run with one BLAS thread unless the caller set these: on a
# small shared machine idle BLAS threads spin on the other core and only
# add noise to the timings.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_ENV = {**{k: "1" for k in BLAS_ENV}, **os.environ}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine_facts(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: WORKER_ENV[k] for k in BLAS_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown (not a git checkout)"


def import_times(stderr: str) -> dict:
    """Seconds spent importing fdmsim (all it pulls in) and scipy, from the
    `-X importtime` lines of one worker."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        rows.append((level, name.strip(), int(cumulative) * 1e-6))
    fdmsim_s = scipy_s = 0.0
    ancestors: list[str] = []
    # importtime prints children before their parent; reversed, every
    # parent precedes its children.
    for level, name, cumulative in reversed(rows):
        del ancestors[level:]
        if level == 0 and name.split(".")[0] == "fdmsim":
            fdmsim_s += cumulative
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            scipy_s += cumulative
        ancestors.append(name)
    return {"setup.import_fdmsim_s": fdmsim_s, "setup.import_scipy_s": scipy_s}


def count_mismatches(digests: list[str]) -> tuple[str, int]:
    """The most common fingerprint and how many iterations disagree with it."""
    common, n = Counter(digests).most_common(1)[0]
    return common, len(digests) - n


def run_worker(k: int, args, deadline: float, workdir: Path) -> tuple[dict, str]:
    out = workdir / f"worker-{k}.json"
    spawned = _now()
    cmd = [sys.executable, *(["-X", "importtime"] if args.trace else []), str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--spawned", repr(spawned),
           "--deadline", repr(deadline), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=deadline - _now() + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    relay = [line for line in stderr.splitlines() if not line.startswith("import time:")]
    if relay:
        print("\n".join(relay), file=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
    return json.loads(out.read_text()), stderr


def percentile_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"median {statistics.median(values):.6g}  n={n}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return note + f"  p{p} {q:.6g}"
    return note + "  (too few samples for a tail percentile)"


def scale_to_yardstick(res: dict) -> None:
    """Attach to a worker result the factors that turn its host seconds
    into yardstick-scaled seconds."""
    y = res["yardstick_s"]
    res["setup_factor"] = YARDSTICK_REF_S / y[0]
    for i, it in enumerate(res["iterations"]):
        it["factor"] = YARDSTICK_REF_S / ((y[i] + y[i + 1]) / 2)


def layer_metrics(results: list[dict], untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the workers' spans and counters, as means
    per traced iteration; times are yardstick-scaled."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    covered = 0.0
    walls = []
    for res in results:
        dump = json.loads(Path(res["spans_file"]).read_text())
        per_run, span_calls, cover = tracer.self_times(dump["spans"])
        factors = [it["factor"] for it in res["iterations"]]
        for run, by_name in per_run.items():
            self_s.update({name: t * factors[run] for name, t in by_name.items()})
        covered += sum(t * factors[run] for run, t in cover.items())
        calls.update(span_calls)
        counts.update(dump["counts"])
        walls += [it["wall_s"] * it["factor"] for it in res["iterations"] if it["traced"]]
    n = len(walls)
    m = {tracer.self_metric(name): self_s[name] / n for name in tracer.SPANS}
    m.update({metric: calls[span] / n for span, metric in tracer.CALL_METRICS.items()})
    for key in ("device.s21_evals", "dynamics.rk4_steps", "experiments.bytes_written"):
        m[key] = counts[key] / n
    m["rxchain.adc_clip_events"] = sum(
        it["clip_events"] for res in results for it in res["iterations"] if it["traced"]) / n
    m["trace.wall_s"] = sum(walls) / n
    m["trace.unattributed_s"] = (sum(walls) - covered) / n
    m["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced_walls)
    m["chipfile.load_s"] = statistics.median(r["chip_load_s"] * r["setup_factor"] for r in results)
    for key in ("setup.import_fdmsim_s", "setup.import_scipy_s"):
        m[key] = statistics.median(r[key] * r["setup_factor"] for r in results)
    return m


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fdmsim" / "__init__.py").is_file():
        print(f"no fdmsim sources under {SRC}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # Byte-compile once so that no worker's set-up pays for it.
    compileall.compile_dir(str(SRC / "fdmsim"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = _now()
        results = []
        for k in range(WORKERS):
            deadline = start + args.seconds * (k + 1) / WORKERS
            res, stderr = run_worker(k, args, deadline, workdir)
            if args.trace:
                res.update(import_times(stderr))
            scale_to_yardstick(res)
            results.append(res)
        iterations = [it for r in results for it in r["iterations"]]
        untraced = [it for it in iterations if not it["traced"]]
        raw_walls = [it["wall_s"] for it in untraced]
        walls = [it["wall_s"] * it["factor"] for it in untraced]
        setups = [r["setup_s"] * r["setup_factor"] for r in results]
        rss = [r["peak_rss_kb"] / 1024 for r in results]

        fingerprint, mismatches = count_mismatches([it["digest"] for it in iterations])
        attempted = sum(it["attempted"] for it in iterations)
        failed = sum(it["failed"] for it in iterations) + mismatches
        selftest_ok = (all(r["selftest_ok"] for r in results)
                       and count_mismatches(["a", "a", "b"])[1] == 1)

        if args.trace:
            metrics = layer_metrics(results, walls)
            metrics["failed_frac"] = failed / attempted
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(rss),
            }
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")

        print(f"fdmsim benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("machine: " + json.dumps(machine_facts(args.seed), sort_keys=True))
        print("reference: no measured-hardware reference; analytic oracles stand in: "
              "closed-form amplitude*S21, configured dip frequencies, analytic "
              "crossing flux, -20 dB crosstalk limit, sin^2 Rabi law, linear Rabi "
              "frequency, Carson band")
        print(f"loop: closed, 1 client, {WORKERS} fresh workers one at a time, "
              f"{len(iterations)} iterations ({len(iterations) - len(untraced)} traced)")
        print(f"fingerprint: sha256 {fingerprint} "
              f"({len(iterations) - mismatches}/{len(iterations)} iterations agree)")
        print(f"checks: attempted {attempted} failed {failed} "
              f"failed_frac {failed / attempted:.3g} self-test "
              f"{'passed' if selftest_ok else 'FAILED'}")
        # All iterations of one seed agree, so the first one speaks for all.
        print("oracle deviations (information, not gated): "
              + json.dumps(iterations[0]["deviations"]))
        yardsticks = [y for r in results for y in r["yardstick_s"]]
        print(f"yardstick: {percentile_note(yardsticks)} (host s; "
              f"times below are scaled to {YARDSTICK_REF_S} s)")
        print(f"wall_s: {percentile_note(walls)}; unscaled {percentile_note(raw_walls)}")
        print(f"setup_s: {percentile_note(setups)}; unscaled "
              f"{percentile_note([r['setup_s'] for r in results])}")
        print(f"peak_rss_mb: {percentile_note(rss)}")
        if args.trace:
            self_sum = sum(metrics[tracer.self_metric(name)] for name in tracer.SPANS)
            print(f"trace: layer self times {self_sum:.6g} s + unattributed "
                  f"{metrics['trace.unattributed_s']:.6g} s = traced wall "
                  f"{metrics['trace.wall_s']:.6g} s")
        print(json.dumps({
            "correct": bool(failed == 0 and selftest_ok),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
