"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale benchmark
is the default synthetic stream (10 tasks x 10 classes, D=64, noise 0.6,
memory-free) over seeds 0..4 with the default training and pipeline
configuration (beta=0.8, gamma=0.8, temperature=2). Criterion 10 is the
memory-based setting of ``configs/memory_based.cfg`` (noise 1.4, two replay
exemplars per past class) over seeds 0..2. Criterion 11 is the memory-free
operating point of ``configs/memory_free.cfg`` (weight decay 5e-5), where the
bias shows without saturating, over seeds 0..2.
"""

import csv
import itertools
import os

import numpy as np
import pytest

from arcbench.arc import ArcConfig, tss
from arcbench.cli import RunConfig, _effective_config, main, read_config_file
from arcbench.core import (
    LinearHead,
    TaskLayout,
    TrainConfig,
    forward,
    loss_gradient,
    softmax,
)
from arcbench.data import SyntheticSpec, generate_synthetic
from arcbench.harness import (RMatrix, _probe_accuracy, _stage_traces, average_accuracy,
                              forgetting, otd_validation, run_stream)
from arcbench.otd import confidence

import test_properties as props
from oracles import cross_entropy, entropy, fd_gradient, mp_tss, relative_error

SEEDS = (0, 1, 2, 3, 4)
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
MEMORY_CONFIG = os.path.join(CONFIGS, "memory_based.cfg")
MEMORY_FREE_CONFIG = os.path.join(CONFIGS, "memory_free.cfg")


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = {}
    for seed in SEEDS:
        stream = generate_synthetic(SyntheticSpec(seed=seed))
        runs[seed] = run_stream(stream, TrainConfig(), ArcConfig(), seed)
    return runs


@pytest.fixture(scope="module")
def beta_zero_traces(benchmark_runs):
    """Each seed's pipeline traces at beta 0, from benchmark_runs' heads:
    training never sees beta, so these are run_stream's traces at beta 0."""
    cfg = ArcConfig(beta=0.0, gamma=0.8)
    traces = {}
    for seed, run in benchmark_runs.items():
        stream = generate_synthetic(SyntheticSpec(seed=seed))
        traces[seed] = [_stage_traces(stream, head, t, [cfg], seed)[0]
                        for t, head in enumerate(run.stage_heads, start=1)]
    return traces


def test_criterion_1_gradient_oracle():
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(100 + case)
        k = int(rng.integers(2, 13))
        d = int(rng.integers(2, 9))
        head = LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k))
        x = rng.standard_normal(d)
        label = int(rng.integers(0, k))

        def loss(w, b):
            p = softmax(forward(LinearHead(w, b), x))
            return cross_entropy(p, label) + entropy(p)

        dw, db = loss_gradient(forward(head, x[None]), x[None], np.array([label]), True, True)
        fd_dw, fd_db = fd_gradient(loss, head.weights, head.bias, step=1e-4)
        worst = max(worst, relative_error(dw, fd_dw), relative_error(db, fd_db))
    report(1, "gradient oracle", worst <= 1e-5, f"max relative error {worst:.3g} <= 1e-5")


def test_criterion_2_tss_oracle():
    worst = 0.0
    exact_first_stage = True
    for case in range(50):
        rng = np.random.default_rng(200 + case)
        t = int(rng.integers(1, 6))
        s = int(rng.integers(1, 5))
        z = 2.0 * rng.standard_normal(s * t)
        for temperature in (1.5, 2.0, 4.0):
            got = tss(z, t, s, temperature)
            want = mp_tss(z, t, s, temperature)
            worst = max(worst, float(np.max(np.abs(got - want))))
        if t == 1:
            _, (c,) = confidence(z[None])
            exact_first_stage &= tss(z, 1, s, 2.0)[0] == c
    # first-stage equality checked on dedicated vectors too
    for case in range(10):
        rng = np.random.default_rng(260 + case)
        z = 3.0 * rng.standard_normal(int(rng.integers(1, 13)))
        _, (c,) = confidence(z[None])
        exact_first_stage &= tss(z, 1, len(z), 2.0)[0] == c
    ok = worst <= 1e-12 and exact_first_stage
    report(2, "task-score oracle", ok,
           f"max abs error {worst:.3g} <= 1e-12, first-stage score equals confidence: {exact_first_stage}")


def test_criterion_3_metric_arithmetic(benchmark_runs):
    diag = {1: 1.0, 2: 0.9, 3: 0.95}
    r = RMatrix.from_rows([[diag[i] if i == t else 0.5 for i in range(1, t + 1)]
                           for t in range(1, 4)])
    for i, value in enumerate((0.6, 0.7, 0.95), start=1):
        r.values[2, i - 1] = value
    hand_ok = abs(average_accuracy(r) - 0.75) <= 1e-12 and abs(forgetting(r) - 0.3) <= 1e-12

    reducer_worst = 0.0
    for result in benchmark_runs.values():
        for metrics, matrix in (
            (result.metrics_with_arc, result.r_with_arc),
            (result.metrics_without_arc, result.r_without_arc),
        ):
            n = matrix.num_tasks
            final = [matrix.entry(n, i) for i in range(1, n + 1)]
            avg = sum(final) / n
            drops = [matrix.entry(i, i) - matrix.entry(n, i) for i in range(1, n)]
            forget = sum(drops) / (n - 1)
            reducer_worst = max(reducer_worst,
                                abs(avg - metrics.average_accuracy),
                                abs(forget - metrics.forgetting))
    ok = hand_ok and reducer_worst <= 1e-12
    report(3, "metric arithmetic", ok,
           f"worked example ok: {hand_ok}, reducer max deviation {reducer_worst:.3g} <= 1e-12")


def test_criterion_4_bias_reproduction(benchmark_runs):
    pooled = np.zeros(10, dtype=np.int64)
    for result in benchmark_runs.values():
        pooled += result.bias_histogram
    fraction = pooled[-1] / pooled.sum()
    report(4, "bias reproduction", fraction >= 0.5,
           f"{pooled[-1]} of {pooled.sum()} wrong first-task predictions in the "
           f"final task's range ({fraction:.3f} >= 0.5)")


def test_criterion_5_pipeline_improvement(benchmark_runs):
    acc_arc = np.mean([r.metrics_with_arc.average_accuracy for r in benchmark_runs.values()])
    acc_base = np.mean([r.metrics_without_arc.average_accuracy for r in benchmark_runs.values()])
    f_arc = np.mean([r.metrics_with_arc.forgetting for r in benchmark_runs.values()])
    f_base = np.mean([r.metrics_without_arc.forgetting for r in benchmark_runs.values()])
    ok = acc_arc > acc_base and f_arc < f_base
    report(5, "pipeline improvement", ok,
           f"accuracy {acc_arc:.4f} > {acc_base:.4f}, forgetting {f_arc:.4f} < {f_base:.4f}")


def test_criterion_6_detection_filtering(benchmark_runs, beta_zero_traces):
    at_default = np.mean([
        otd_validation(r.arc_traces).assumption1_precision for r in benchmark_runs.values()
    ])
    at_zero = np.mean([
        otd_validation(traces).assumption1_precision for traces in beta_zero_traces.values()
    ])
    report(6, "detection filtering", at_default > at_zero,
           f"assumption-1 precision {at_default:.4f} at beta=0.8 > {at_zero:.4f} at beta=0")


def test_criterion_7_probe_gap(benchmark_runs):
    # linear_probe_experiment's (stage 10, task 1) row: task 1's own probe
    # against the final shared head, whose plain scores benchmark_runs holds
    gaps = []
    for seed, run in benchmark_runs.items():
        stream = generate_synthetic(SyntheticSpec(seed=seed))
        shared = run.r_without_arc.entry(10, 1)
        gaps.append(_probe_accuracy(stream, TrainConfig(), seed, 1) - shared)
    mean_gap = float(np.mean(gaps))
    report(7, "probe gap", mean_gap >= 0.05,
           f"independent-vs-shared gap on first task {mean_gap:.4f} >= 0.05")


def test_criterion_8_invariant_suite(tmp_path):
    rng = np.random.default_rng(777)
    for _ in range(20):
        z = 3.0 * rng.standard_normal(int(rng.integers(1, 20)))
        props.check_softmax_shift_invariance(z, float(rng.uniform(-80, 80)))
        props.check_prob_vector(z)
    for case in range(4):
        case_rng = np.random.default_rng(800 + case)
        props.check_gradient_against_finite_differences(case_rng, k=6, d=5)
        props.check_expansion_preserves_logits(case_rng, layout=TaskLayout(3, 4), d=6)
        props.check_sgd_step_reversible(case_rng, 5, 4)
        props.check_retention_leaves_features_alone(case_rng)
        props.check_one_update_per_batch(case_rng)
    for case in range(6):
        case_rng = np.random.default_rng(900 + case)
        t, s = int(case_rng.integers(2, 5)), int(case_rng.integers(1, 4))
        for _ in range(20):
            z = 2.5 * case_rng.standard_normal(s * t)
            props.check_first_stage_passthrough(z)
            props.check_branch_ranges(z, t, s, 0.6, 0.9)
            props.check_threshold_monotonicity(z, t, s)
            props.check_masked_confidence_prefix_only(z, t, s, case_rng)
            props.check_extreme_thresholds(z, t, s)
            props.check_correction_containment(z, t, s)
            props.check_tss_prefix_locality(z, t, s, case_rng)
            props.check_tss_temperature_one(z, t, s)
            props.check_decision_shift_invariance(z, t, s, float(case_rng.uniform(-30, 30)))
    spec = SyntheticSpec(num_tasks=3, step=2, dim=8, train_per_class=10,
                         test_per_class=8, seed=77)
    props.check_stream_determinism_and_containment(spec)
    props.check_embedding_round_trip(spec, str(tmp_path / "acc.emb1"))
    props.check_run_invariants(generate_synthetic(spec),
                               TrainConfig(epochs=6, lr=1.0, batch_size=16,
                                           weight_decay=1e-3), seed=77)
    report(8, "invariant suite", True,
           "shift invariance, prefix locality, containment, expansion preservation, "
           "update counting, isolation, round trip, determinism all hold")


def test_criterion_9_ablation_grid(tmp_path):
    args = [
        "ablate",
        "--data.num_tasks", "3", "--data.step", "2", "--data.dim", "8",
        "--data.train_per_class", "10", "--data.test_per_class", "8",
        "--train.epochs", "6", "--train.lr", "1.0", "--train.batch_size", "16",
        "--train.weight_decay", "0.001", "--arc.batch_size", "8",
        "--run.seeds", "3",
    ]
    out1, out2 = tmp_path / "grid1", tmp_path / "grid2"
    code1 = main([*args, "--run.output_dir", str(out1)])
    code2 = main([*args, "--run.output_dir", str(out2)])
    with open(out1 / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = 3 * 2 * 2 * 4 * 5  # losses x temperatures x w-modes x betas x gammas
    cells = {(r[1], r[2], r[3], float(r[4]), float(r[5])) for r in rows}
    full_grid = set(itertools.product(("ce", "em", "both"), ("on", "off"),
                                      ("ratio", "raw"), (0.6, 0.7, 0.8, 0.9),
                                      (0.6, 0.7, 0.8, 0.9, 1.0)))
    identical = (out1 / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and len(rows) == expected and cells == full_grid and identical
    report(9, "ablation grid", ok,
           f"{len(rows)} rows == {expected}, full variant grid covered, "
           f"byte-identical across reruns: {identical}")


def test_criterion_10_memory_based(tmp_path):
    # the file read as `arcbench run --config` reads it
    cfg = RunConfig(_effective_config(read_config_file(MEMORY_CONFIG),
                                      {"run.output_dir": str(tmp_path / "unused")}))
    ok = cfg.train.replay_per_class > 0
    details = [f"replay {cfg.train.replay_per_class} per class, noise {cfg.spec.noise_sigma:g}"]
    for seed in (0, 1, 2):
        result = run_stream(cfg.stream_for_seed(seed), cfg.train, cfg.arc, seed)
        arc, base = result.metrics_with_arc, result.metrics_without_arc
        ok &= arc.average_accuracy > base.average_accuracy and arc.forgetting < base.forgetting
        details.append(f"seed {seed}: accuracy {arc.average_accuracy:.4f} > "
                       f"{base.average_accuracy:.4f}, forgetting {arc.forgetting:.4f} < "
                       f"{base.forgetting:.4f}")
    report(10, "memory-based improvement", ok, "; ".join(details))


def test_criterion_11_memory_free_operating_point(tmp_path):
    # the file read as `arcbench run --config` reads it
    cfg = RunConfig(_effective_config(read_config_file(MEMORY_FREE_CONFIG),
                                      {"run.output_dir": str(tmp_path / "unused")}))
    ok = cfg.train.replay_per_class == 0
    details = [f"memory-free, weight decay {cfg.train.weight_decay:g}"]
    for seed in (0, 1, 2):
        stream = cfg.stream_for_seed(seed)
        result = run_stream(stream, cfg.train, cfg.arc, seed)
        arc, base = result.metrics_with_arc, result.metrics_without_arc
        # the probe row (stage n, task 1): task 1's own probe against the final shared head
        task1 = result.r_without_arc.entry(stream.layout.num_tasks, 1)
        gap = _probe_accuracy(stream, cfg.train, seed, 1) - task1
        gain, kept = arc.average_accuracy - base.average_accuracy, base.forgetting - arc.forgetting
        ok &= gain > 0 and kept > 0 and 0 < task1 < 1 and 0 < gap < 1
        details.append(f"seed {seed}: accuracy {arc.average_accuracy:.4f} - "
                       f"{base.average_accuracy:.4f} = {gain:+.4f} > 0, forgetting "
                       f"{base.forgetting:.4f} - {arc.forgetting:.4f} = {kept:+.4f} > 0, "
                       f"final task-1 accuracy {task1:.4f} in (0, 1) by "
                       f"{min(task1, 1 - task1):.4f}, probe gap {gap:.4f} in (0, 1) by "
                       f"{min(gap, 1 - gap):.4f}")
    report(11, "memory-free operating point", ok, "; ".join(details))
