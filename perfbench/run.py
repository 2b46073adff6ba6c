"""arcbench's benchmark: drive the CLI as a user would and report metrics.

    python3 perfbench/run.py --workload run-default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a source checkout; the CLI is started from ``src/``
with ``PYTHONPATH``, nothing is installed. Load model: a closed loop from
one process, one CLI command at a time, BLAS threads fixed at 1.

``--trace 0`` starts the CLI untraced until ``--seconds`` are used and
prints the end-to-end metrics named in BENCHMARK.json. ``--trace 1``
alternates untraced and traced starts and prints the per-layer metrics.
Every bundle is checked; the last line of stdout is the result object.
``--workload all`` runs every workload both ways and prints every metric
by name with its unit. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spans import load, percentile, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, CheckFailed, Workload, check_bundle, csv_digests  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
NS = 1e9
# units of the workload-specific figures that BENCHMARK.json cannot hold,
# because the driver asks every workload for every end-to-end metric
FIGURE_UNITS = {"arc_avg_acc": "fraction", "baseline_avg_acc": "fraction",
                "arc_forgetting": "fraction", "probe_gap": "fraction",
                "failed_ops": "ratio"}


class Child:
    """Outcome of one child process."""

    def __init__(self, spawn_ns: int, end_ns: int, status: int, rss_kb: int, stderr: str):
        self.spawn_ns = spawn_ns
        self.wall_s = (end_ns - spawn_ns) / NS
        self.status = status
        self.rss_mb = rss_kb / 1024
        self.stderr = stderr


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ARCBENCH_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(THREAD_ENV)
    return env


def start(args: list[str], log_stem: Path) -> Child:
    """Run ``python3 <args>`` from the checkout root and wait for it."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end_ns = time.perf_counter_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    stderr = Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace")
    return Child(spawn_ns, end_ns, proc.returncode, usage.ru_maxrss, stderr)


class WorkloadRun:
    """One benchmark run of one workload: its starts, checks and samples."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.emb_path = str(work / "input.emb1") if workload.embeddings is not None else None
        self.info_path = work / "prepare.json"
        args = ["-m", "perfbench.launch", "prepare", str(self.info_path)]
        if self.emb_path:
            args += [self.emb_path, str(seed), json.dumps(workload.embeddings)]
        child = start(args, work / "prepare")
        if child.status != 0:
            raise RuntimeError(f"input generation failed: {child.stderr}")
        self.attempted = 0
        self.failed = 0
        self.figures: dict[str, float] | None = None
        self.digests: dict[str, str] | None = None
        self.starts = 0

    def _fail(self, what: str, message: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name} {what}: {message.strip()[-2000:]}", file=sys.stderr)

    def setup(self) -> Child | None:
        self.attempted += 1
        self.starts += 1
        stem = self.work / f"setup-{self.starts}"
        args = self.workload.cli_args(self.seed, str(self.work / f"unused-{self.starts}"),
                                      self.emb_path)
        child = start(["-m", "perfbench.launch", "setup", "--", *args], stem)
        if child.status != 0:
            self._fail("setup", child.stderr or f"exit {child.status}")
            return None
        return child

    def cli(self, traced: bool) -> tuple[Child, tuple | None] | None:
        """One CLI start; returns it with its spans document when traced,
        or None if it failed its checks."""
        self.attempted += 1
        self.starts += 1
        stem = self.work / f"cli-{self.starts}"
        bundle = self.work / f"bundle-{self.starts}"
        args = self.workload.cli_args(self.seed, str(bundle), self.emb_path)
        spans_path = self.work / f"spans-{self.starts}.bin"
        if traced:
            run_id = f"{self.workload.name}/{self.seed}/{self.starts}"
            args = ["-m", "perfbench.launch", "trace", str(spans_path), run_id, "--", *args]
        else:
            args = ["-m", "arcbench", *args]
        child = start(args, stem)
        try:
            if child.status != 0:
                raise CheckFailed(child.stderr or f"exit {child.status}")
            figures = check_bundle(self.workload, str(bundle), self.seed)
            digests = csv_digests(str(bundle))
            if self.digests is None:
                self.figures, self.digests = figures, digests
            elif digests != self.digests:
                raise CheckFailed("CSV bytes differ from the first start of this run")
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self._fail(f"start {self.starts}", f"{type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(bundle, ignore_errors=True)
        return child, (load(str(spans_path)) if traced else None)


def layer_metrics(traced: tuple[dict, list], child: Child) -> dict[str, float]:
    """Per-layer metrics of one traced start."""
    doc, spans = traced
    counts = Counter(doc["counts"])
    busy: Counter = Counter()
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    layer_self: Counter = Counter()
    for (name, start_ns, end_ns, _), own in zip(spans, self_times(spans)):
        busy[name] += end_ns - start_ns
        calls[name] += 1
        self_ns[name] += own
        layer_self[name.split(".")[0]] += own
    batch_ms = [ns / 1e6 for ns in doc["batch_ns"]]
    startup_s = (doc["main_start_ns"] - child.spawn_ns) / NS

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {
        "otd.busy_s": busy["otd.classify_sample"] / NS,
        "otd.calls": calls["otd.classify_sample"],
        "otd.past_correct": counts["otd.past_correct"],
        "otd.past_misclassified": counts["otd.past_misclassified"],
        "otd.passthrough": counts["otd.passthrough"],
        "arc.arc_evaluate.busy_s": busy["arc.arc_evaluate"] / NS,
        "arc.arc_evaluate.self_s": self_ns["arc.arc_evaluate"] / NS,
        "arc.batches": len(batch_ms),
        "arc.samples": counts["arc.samples"],
        "arc.batch_p50_ms": percentile(batch_ms, 50) if batch_ms else 0.0,
        "arc.batch_p99_ms": percentile(batch_ms, 99) if batch_ms else 0.0,
        "arc.retention.busy_s": busy["arc.retention"] / NS,
        "arc.retention.calls": calls["arc.retention"],
        "arc.retention.updates": counts["arc.retention.updates"],
        "arc.retention.skipped": counts["arc.retention.skipped"],
        "arc.retention.applied_ratio": ratio(counts["arc.retention.updates"],
                                             calls["arc.retention"]),
        "arc.correction.busy_s": busy["arc.correction"] / NS,
        "arc.correction.calls": calls["arc.correction"],
        "arc.correction.changed": counts["arc.correction.changed"],
        "arc.correction.changed_ratio": ratio(counts["arc.correction.changed"],
                                              calls["arc.correction"]),
        "core.forward.busy_s": busy["core.forward"] / NS,
        "core.forward.calls": calls["core.forward"],
        "core.forward.flops": counts["core.forward.flops"],
        "core.forward.temp_bytes_max": counts["core.forward.temp_bytes_max"],
        "core.fit_task.busy_s": busy["core.fit_task"] / NS,
        "core.fit_task.calls": calls["core.fit_task"],
        "core.fit_task.sgd_steps": counts["core.fit_task.sgd_steps"],
        "data.busy_s": (busy["data.generate_synthetic"] + busy["data.load_embeddings"]) / NS,
        "data.records": counts["data.records"],
        "data.bytes_read": counts["data.bytes_read"],
        "harness.train_sequence.busy_s": busy["harness.train_sequence"] / NS,
        "harness.otd_validation.busy_s": busy["harness.otd_validation"] / NS,
        "cli.render_csv.busy_s": busy["cli.render_csv"] / NS,
        "cli.rows": counts["cli.rows"],
        "cli.bundle_bytes": counts["cli.bundle_bytes"],
        "cli.write_bundle.busy_s": busy["cli.write_bundle"] / NS,
        "trace.wall_s": child.wall_s,
        "trace.startup_s": startup_s,
        "trace.unaccounted_s": child.wall_s - startup_s - sum(layer_self.values()) / NS,
    }
    for layer in ("data", "core", "otd", "arc", "harness", "cli"):
        out[f"{layer}.self_s"] = layer_self[layer] / NS
    return out


def measure(run: WorkloadRun, seconds: float, traced: bool) -> dict:
    """Start the CLI until ``seconds`` are used (at least once).

    Untraced: set-up probes first, then untraced starts. Traced: pairs of
    an untraced and a traced start.
    """
    setups = []
    if not traced:
        setups = [c.wall_s for c in (run.setup() for _ in range(SETUP_REPEATS)) if c]
    plain: list[Child] = []
    layers: list[dict[str, float]] = []
    began = time.perf_counter()
    step = 0.0
    while not (plain or layers) or time.perf_counter() - began + step <= seconds:
        step_began = time.perf_counter()
        result = run.cli(traced=False)
        if result:
            plain.append(result[0])
        if traced:
            result = run.cli(traced=True)
            if result:
                layers.append(layer_metrics(result[1], result[0]))
        step = time.perf_counter() - step_began
        if run.failed and not (plain or layers):
            break
    return {"setup_s": setups, "plain": plain, "layers": layers}


def end_to_end(samples: dict, figures: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(c.wall_s for c in samples["plain"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(c.rss_mb for c in samples["plain"]),
        "headline_acc": figures["headline_acc"],
    }


def per_layer(samples: dict) -> dict[str, float]:
    layers = samples["layers"]
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        c.wall_s for c in samples["plain"])
    return out


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def provenance(run: WorkloadRun) -> dict:
    return {
        **json.loads(run.info_path.read_text(encoding="utf-8")),
        "thread_env": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "src_lines": src_line_count(),
    }


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> dict:
    """One benchmark run; returns the result object plus its details."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = work_root / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    work.mkdir()
    try:
        run = WorkloadRun(workload, seed, work)
        samples = measure(run, seconds, trace)
        ok = bool(samples["layers"] if trace else samples["plain"] and samples["setup_s"])
        if not ok:
            return {"result": None, "attempted": run.attempted, "failed": run.failed}
        figures = dict(run.figures)
        figures["failed_ops"] = run.failed / run.attempted
        wanted = spec()["per_layer" if trace else "end_to_end"]
        values = per_layer(samples) if trace else end_to_end(samples, figures)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        return {
            "result": {"correct": run.failed == 0, "attempted": run.attempted,
                       "failed": run.failed, "metrics": metrics},
            "figures": {k: v for k, v in figures.items() if k != "headline_acc"},
            "samples": {"wall_s": [c.wall_s for c in samples["plain"]],
                        "setup_s": samples["setup_s"]},
            "provenance": provenance(run),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def print_table(workload: str, report: dict, figures: bool) -> None:
    rows = [(name, m["value"], m["unit"]) for name, m in report["result"]["metrics"].items()]
    if figures:
        rows += [(name, value, FIGURE_UNITS[name]) for name, value in report["figures"].items()]
    for name, value, unit in rows:
        print(f"{workload:14s} {name:32s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arcbench" / "cli.py").is_file():
        print(f"error: no arcbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench-work"

    if args.workload != "all":
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work_root)
        if report["result"] is None:
            print(f"error: every start failed ({report['failed']} of {report['attempted']})",
                  file=sys.stderr)
            return 1
        print(json.dumps({k: v for k, v in report.items() if k != "result"}))
        print(json.dumps(report["result"]))
        return 0

    combined = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            report = run_workload(workload, args.seed, args.seconds, trace, work_root)
            if report["result"] is None:
                print(f"error: {name}: every start failed", file=sys.stderr)
                return 1
            print_table(name, report, figures=not trace)
            combined[f"{name}/trace{int(trace)}"] = report
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
