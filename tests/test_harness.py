import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from arcbench.arc import ArcConfig
from arcbench.cli import RunConfig, _effective_config
from arcbench.core import TaskLayout, TrainConfig, forward, new_head
from arcbench.data import SyntheticSpec, generate_synthetic
from arcbench import core, data, harness
from arcbench.harness import (
    PROBE_TAG,
    RMatrix,
    ablation_grid,
    average_accuracy,
    bias_histogram,
    forgetting,
    linear_probe_experiment,
    map_stages,
    otd_validation,
    pipeline_traces,
    run_stream,
    train_sequence,
    trains_in_child,
)

from stage_schedules import late_claims, log_stages

SMALL_SPEC = SyntheticSpec(num_tasks=3, step=2, dim=8, train_per_class=12,
                           test_per_class=10, seed=5)
SEPARABLE_SPEC = SyntheticSpec(num_tasks=3, step=2, dim=32, mean_scale=5.0,
                               noise_sigma=0.3, train_per_class=20,
                               test_per_class=15, seed=2)
FAST_TRAIN = TrainConfig(epochs=8, lr=1.0, batch_size=16, weight_decay=1e-3)


@pytest.fixture(scope="module")
def small_stream():
    return generate_synthetic(SMALL_SPEC)


@pytest.fixture(scope="module")
def small_run(small_stream):
    return run_stream(small_stream, FAST_TRAIN, ArcConfig(batch_size=8), seed=5)


def build_r(final_row, diag=None):
    """Final row as given; stage t < N is 0.5 on past tasks and diag[t-1] on its own."""
    n = len(final_row)
    diag = diag if diag is not None else [1.0] * n
    rows = [[0.5] * (t - 1) + [diag[t - 1]] for t in range(1, n)]
    return RMatrix.from_rows([*rows, final_row])


def scores(result):
    """(average accuracy, forgetting) with and without the pipeline."""
    return [(average_accuracy(r), forgetting(r)) for r in (result.r_with_arc, result.r_without_arc)]


def task1_bias(stream, result):
    return bias_histogram(result.task1_predictions, stream.test[0].labels, stream.layout)


class TestMetrics:
    def test_average_accuracy_worked_example(self):
        r = build_r([0.6, 0.7, 0.95])
        assert average_accuracy(r) == pytest.approx(0.75, abs=1e-12)

    def test_average_accuracy_extremes(self):
        assert average_accuracy(build_r([1.0, 1.0, 1.0])) == 1.0
        assert average_accuracy(build_r([0.0, 0.0])) == 0.0

    def test_forgetting_worked_examples(self):
        r = RMatrix.from_rows([[1.0], [0.6, 0.9]])
        assert forgetting(r) == pytest.approx(0.4, abs=1e-12)
        r3 = build_r([0.6, 0.7, 0.95], diag=[1.0, 0.9, 0.95])
        assert forgetting(r3) == pytest.approx(0.3, abs=1e-12)

    def test_forgetting_constant_columns_is_zero(self):
        r = RMatrix.from_rows([[0.8] * t for t in range(1, 4)])
        assert forgetting(r) == 0.0

    def test_forgetting_single_task_rejected(self):
        r = RMatrix.from_rows([[1.0]])
        with pytest.raises(ValueError):
            forgetting(r)


class TestRMatrix:
    @pytest.mark.parametrize("rows, message", [
        ([[1.0], [0.5]], "stage 2 row .* is not 2 accuracies in"),
        ([[1.0], [0.5, 1.5]], "stage 2 row .* is not 2 accuracies in"),
        ([[np.nan]], "stage 1 row .* is not 1 accuracies in"),
        ([], "no stage rows"),
    ], ids=["short_row", "above_one", "nan", "empty"])
    def test_bad_rows_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            RMatrix.from_rows(rows)

    @pytest.mark.parametrize("read", [
        lambda r: r.entry(0, 0), lambda r: r.row(0), lambda r: r.entry(1, 2),
        lambda r: r.entry(3, 1), lambda r: r.row(3),
    ], ids=["entry_0_0", "row_0", "entry_above_diagonal", "entry_past_n", "row_past_n"])
    def test_reads_outside_the_triangle_rejected(self, read):
        with pytest.raises(ValueError, match="outside the lower triangle"):
            read(RMatrix.from_rows([[1.0], [0.6, 0.9]]))


class TestBiasHistogram:
    LAYOUT = TaskLayout(num_tasks=3, step=2)

    def test_all_correct_gives_zeros(self):
        labels = np.array([0, 1, 0])
        counts = bias_histogram(labels.copy(), labels, self.LAYOUT)
        assert np.array_equal(counts, [0, 0, 0])

    def test_maximal_bias(self):
        labels = np.array([0, 1, 1, 0])
        predicted = np.array([4, 5, 4, 0])  # three wrong, all in task 3's range
        counts = bias_histogram(predicted, labels, self.LAYOUT)
        assert np.array_equal(counts, [0, 0, 3])

    def test_conservation(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, 50)
        predicted = rng.integers(0, 6, 50)
        counts = bias_histogram(predicted, labels, self.LAYOUT)
        assert counts.sum() == np.sum(predicted != labels)

    def test_needs_two_tasks(self):
        with pytest.raises(ValueError):
            bias_histogram(np.array([0]), np.array([0]), TaskLayout(num_tasks=1, step=2))


class TestRunStream:
    def test_single_task_matrices_identical(self):
        spec = SyntheticSpec(num_tasks=1, step=3, dim=6, train_per_class=8,
                             test_per_class=6, seed=1)
        res = run_stream(generate_synthetic(spec), FAST_TRAIN, ArcConfig(), seed=1)
        assert np.array_equal(res.r_with_arc.values, res.r_without_arc.values)
        with pytest.raises(ValueError, match="single task"):
            forgetting(res.r_with_arc)
        assert res.task1_predictions is None

    def test_r_matrix_fill(self, small_run):
        for r in (small_run.r_with_arc, small_run.r_without_arc):
            for t in range(1, 4):
                row = r.row(t)
                assert len(row) == t
                assert np.all((row >= 0) & (row <= 1))
                assert np.all(np.isnan(r.values[t - 1, t:]))

    def test_deterministic_reports(self, small_stream, small_run):
        again = run_stream(small_stream, FAST_TRAIN, ArcConfig(batch_size=8), seed=5)
        assert scores(again) == scores(small_run)
        assert np.array_equal(again.r_with_arc.values, small_run.r_with_arc.values, equal_nan=True)

    def test_arc_off_equivalence(self, small_stream):
        cfg = ArcConfig(retention=False, correction=False, batch_size=8)
        res = run_stream(small_stream, FAST_TRAIN, cfg, seed=5)
        assert np.allclose(res.r_with_arc.values, res.r_without_arc.values, equal_nan=True)

    def test_evaluation_isolation(self, small_stream, small_run):
        # heads after each stage must match a training-only pass bit for bit
        heads = train_sequence(small_stream, FAST_TRAIN, seed=5)
        for trained, evaluated in zip(heads, small_run.stage_heads):
            assert np.array_equal(trained.weights, evaluated.weights)
            assert np.array_equal(trained.bias, evaluated.bias)

    def test_metrics_recomputable_from_r(self, small_run):
        for r in (small_run.r_with_arc, small_run.r_without_arc):
            n = r.num_tasks
            assert average_accuracy(r) == pytest.approx(np.mean(r.values[n - 1]), abs=1e-12)
            drops = [r.values[i, i] - r.values[n - 1, i] for i in range(n - 1)]
            assert forgetting(r) == pytest.approx(np.mean(drops), abs=1e-12)

    def test_bias_histogram_conservation(self, small_stream, small_run):
        labels = small_stream.test[0].labels
        wrong = np.sum(small_run.task1_predictions != labels)
        counts = bias_histogram(small_run.task1_predictions, labels, small_stream.layout)
        assert counts.sum() == wrong

    def test_plain_matrix_and_task1_predictions_from_each_stage_head(self, small_stream,
                                                                    small_run):
        for t, head in enumerate(small_run.stage_heads, start=1):
            for i, test in enumerate(small_stream.test[:t], start=1):
                predicted = forward(head, test.features).argmax(axis=1)
                assert small_run.r_without_arc.entry(t, i) == np.mean(predicted == test.labels)
        # task 1's row of the last stage: the predictions R[N][1] was scored from
        expected = forward(small_run.stage_heads[-1], small_stream.test[0].features).argmax(axis=1)
        assert np.array_equal(small_run.task1_predictions, expected)

    def test_arc_last_only_adapts_final_stage(self, small_stream):
        cfg = ArcConfig(arc_last=True, batch_size=8, beta=0.0, gamma=10.0)
        res = run_stream(small_stream, FAST_TRAIN, cfg, seed=5)
        for trace in res.arc_traces[:-1]:
            assert trace.retention_updates == 0

    def test_replay_buffer_reaches_training(self, small_stream):
        cfg = TrainConfig(epochs=4, lr=1.0, batch_size=16, weight_decay=1e-3,
                          replay_per_class=3)
        res = run_stream(small_stream, cfg, ArcConfig(batch_size=8), seed=5)
        plain = run_stream(small_stream, FAST_TRAIN, ArcConfig(batch_size=8), seed=5)
        assert not np.array_equal(res.stage_heads[-1].weights, plain.stage_heads[-1].weights)


def assert_same_heads(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


needs_fork = pytest.mark.skipif(not trains_in_child(),
                                reason="training runs in a child on Linux with two CPUs only")


def stage_heads(stream, cfg, seed):
    """The head each stage's work receives from map_stages, in stage order,
    and the heads it returns."""
    heads, got = map_stages(stream, cfg, seed, lambda t, head: head)
    return got, heads


def only_main_thread():
    return threading.enumerate() == [threading.main_thread()]


class TestStageHeads:
    """The heads map_stages trains and hands to each stage's work."""

    def test_bit_identical_to_train_sequence_with_replay(self, small_stream):
        cfg = TrainConfig(epochs=4, lr=1.0, batch_size=16, weight_decay=1e-3,
                          replay_per_class=3)
        expected = train_sequence(small_stream, cfg, seed=5)
        got, heads = stage_heads(small_stream, cfg, seed=5)
        assert_same_heads(got, expected)
        assert_same_heads(heads, expected)

    def test_bit_identical_on_one_task_stream(self):
        stream = generate_synthetic(SyntheticSpec(num_tasks=1, step=3, dim=8,
                                                  train_per_class=10, test_per_class=5,
                                                  seed=4))
        expected = train_sequence(stream, FAST_TRAIN, seed=4)
        got, heads = stage_heads(stream, FAST_TRAIN, seed=4)
        assert_same_heads(got, expected)
        assert_same_heads(heads, expected)

    def test_results_in_stage_order(self, small_stream):
        def work(t, head):
            return t, head.num_classes // SMALL_SPEC.step

        _, results = map_stages(small_stream, FAST_TRAIN, 5, work)
        assert results == [(1, 1), (2, 2), (3, 3)]

    def test_training_error_reaches_parent(self, small_stream):
        with pytest.raises(ValueError, match=r"^training overflows at learning rate 1e\+308,"):
            stage_heads(small_stream, TrainConfig(lr=1e308), seed=5)

    @needs_fork
    def test_killed_child_raises_child_process_error(self, small_stream, monkeypatch):
        def killed(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr("arcbench.harness.fit_task", killed)
        with pytest.raises(ChildProcessError,
                           match=r"^training child exited with code 3 before sending stage 1 of 3$"):
            stage_heads(small_stream, FAST_TRAIN, seed=5)

    def test_one_cpu_trains_in_process(self, small_stream, monkeypatch):
        expected = train_sequence(small_stream, FAST_TRAIN, seed=5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not trains_in_child()
        calls = []
        fit = harness.fit_task

        def fit_task(*args, seed):
            calls.append(("fit_task", seed[1]))
            return fit(*args, seed=seed)

        def work(t, head):
            calls.append(("work", t))
            assert multiprocessing.active_children() == []
            assert only_main_thread()
            return os.getpid(), head

        monkeypatch.setattr(harness, "fit_task", fit_task)
        heads, results = map_stages(small_stream, FAST_TRAIN, 5, work)
        # head t is trained when stage t is reached, after stage t - 1's work
        assert calls == [("fit_task", 1), ("work", 1), ("fit_task", 2), ("work", 2),
                         ("fit_task", 3), ("work", 3)]
        pids, got = zip(*results)
        assert pids == (os.getpid(),) * 3
        assert_same_heads(got, expected)
        assert_same_heads(heads, expected)

    def test_work_error_in_caller_stops_the_child(self, small_stream):
        parent = os.getpid()

        def work(t, head):
            if os.getpid() == parent:
                raise KeyError("work failed")
            return t

        with pytest.raises(KeyError, match="work failed"):
            map_stages(small_stream, FAST_TRAIN, 5, work)
        assert multiprocessing.active_children() == []
        assert only_main_thread()


def child_takes_stage_three(in_child):
    """Work for a 3-stage map that lets the child take stage 3: the caller's
    stage 1 waits until the child has claimed and started stage 3, whose work
    there is in_child(3)."""
    parent, started = os.getpid(), multiprocessing.get_context("fork").Event()

    def work(t, head):
        if os.getpid() == parent:
            assert started.wait(timeout=60)
            return t
        started.set()
        return in_child(t)

    return work


def _refuse_unpickling():
    raise pickle.UnpicklingError("refused")


class Unreadable:
    """Pickles, but cannot be unpickled."""

    def __reduce__(self):
        return _refuse_unpickling, ()


@needs_fork
class TestStagesInChild:
    """Stages the training child evaluates, from the top down, once it has sent
    its last head."""

    def test_child_evaluation_error_reaches_parent(self, small_stream):
        def fail(t):
            raise LookupError(f"stage {t} failed in the child")

        with pytest.raises(LookupError, match=r"^stage 3 failed in the child$"):
            map_stages(small_stream, FAST_TRAIN, 5, child_takes_stage_three(fail))

    def test_child_killed_during_evaluation_raises_child_process_error(self, small_stream):
        def killed(t):
            os._exit(3)

        with pytest.raises(ChildProcessError,
                           match=r"^training child exited with code 3 before sending stage 3 of 3$"):
            map_stages(small_stream, FAST_TRAIN, 5, child_takes_stage_three(killed))

    def test_unreadable_result_reaches_parent(self, small_stream):
        with pytest.raises(pickle.UnpicklingError, match=r"^refused$"):
            map_stages(small_stream, FAST_TRAIN, 5, child_takes_stage_three(lambda t: Unreadable()))

    def test_work_error_during_child_evaluation_stops_child_and_reader(self, small_stream):
        def stuck(t):
            time.sleep(60)

        parent, wait_for_stuck_child = os.getpid(), child_takes_stage_three(stuck)

        def work(t, head):
            wait_for_stuck_child(t, head)
            if os.getpid() == parent:
                raise KeyError("work failed")

        start = time.monotonic()
        with pytest.raises(KeyError, match="work failed"):
            map_stages(small_stream, FAST_TRAIN, 5, work)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        assert only_main_thread()

    def test_child_claims_top_stage_while_caller_sleeps(self):
        # heads of 512 x 20 and 512 x 30 floats: together past a 64 KiB pipe,
        # which a child that waited on the caller's reads would fill
        stream = generate_synthetic(SyntheticSpec(num_tasks=3, step=10, dim=512,
                                                  train_per_class=4, test_per_class=2, seed=1))
        def work(t, head):
            started = time.monotonic()
            if t == 1:
                time.sleep(0.5)
            return os.getpid(), started, time.monotonic()

        _, results = map_stages(stream, FAST_TRAIN, 1, work)
        (first_pid, _, woke), (pid, started, _) = results[0], results[-1]
        assert first_pid == os.getpid() != pid
        assert started < woke

    @pytest.mark.parametrize("cfg", [FAST_TRAIN, replace(FAST_TRAIN, replay_per_class=2)],
                             ids=["memory_free", "replay"])
    def test_run_same_under_every_schedule(self, small_stream, monkeypatch, tmp_path, cfg):
        results, logs = {}, {}
        for schedule in ("late_claims", "one_cpu"):
            with monkeypatch.context() as m:
                if schedule == "late_claims":
                    late_claims(m)
                else:
                    m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
                logged = log_stages(m, tmp_path / f"{schedule}.log")
                results[schedule] = run_stream(small_stream, cfg, ArcConfig(batch_size=8), seed=5)
                logs[schedule] = logged()
        parent = os.getpid()
        assert logs["one_cpu"] == [(parent, 1), (parent, 2), (parent, 3)]
        assert sorted(stage for _, stage in logs["late_claims"]) == [1, 2, 3]
        assert [pid == parent for pid, _ in sorted(logs["late_claims"], key=lambda e: e[1])] == [
            True, False, False]
        late, in_process = results["late_claims"], results["one_cpu"]
        for name in ("r_with_arc", "r_without_arc"):
            assert np.array_equal(getattr(late, name).values, getattr(in_process, name).values,
                                  equal_nan=True)
        assert scores(late) == scores(in_process)
        assert_same_heads(late.stage_heads, in_process.stage_heads)
        assert np.array_equal(task1_bias(small_stream, late), task1_bias(small_stream, in_process))
        assert np.array_equal(late.task1_predictions, in_process.task1_predictions)
        assert_same_traces(late.arc_traces, in_process.arc_traces)


def assert_same_traces(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.stage, a.retention_updates) == (b.stage, b.retention_updates)
        for name in ("true_labels", "true_tasks"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert isinstance(a.records, np.recarray)
        assert a.records.dtype == b.records.dtype
        for name in a.records.dtype.names:
            column = b.records[name]
            assert np.array_equal(a.records[name], column, equal_nan=column.dtype.kind == "f")


def with_features(stream, dtype):
    """The stream with every feature array cast to dtype."""
    def cast(split):
        return [data.TaskData(d.features.astype(dtype), d.labels) for d in split]

    return data.TaskStream(stream.layout, cast(stream.train), cast(stream.test))


class TestFeaturePrecision:
    @pytest.mark.parametrize("in_child", [pytest.param(True, marks=needs_fork), False],
                             ids=["child", "in_process"])
    @pytest.mark.parametrize("replay", [0, 2])
    def test_float32_stream_gives_the_float64_results(self, small_stream, monkeypatch,
                                                      in_child, replay):
        """Generated features are float32 values, so their float64 widening is
        exact, and every numeric entry point widens its input: the two streams
        give the same bits everywhere."""
        monkeypatch.setattr(harness, "trains_in_child", lambda: in_child)
        cfg = replace(FAST_TRAIN, replay_per_class=replay)
        runs, probes = {}, {}
        for dtype in (np.float32, np.float64):
            stream = with_features(small_stream, dtype)
            runs[dtype] = run_stream(stream, cfg, ArcConfig(batch_size=8), seed=5)
            probes[dtype] = linear_probe_experiment(stream, cfg, seed=5)
        narrow, wide = runs[np.float32], runs[np.float64]
        assert_same_heads(narrow.stage_heads, wide.stage_heads)
        for name in ("r_with_arc", "r_without_arc"):
            assert np.array_equal(getattr(narrow, name).values, getattr(wide, name).values,
                                  equal_nan=True)
        assert scores(narrow) == scores(wide)
        assert np.array_equal(task1_bias(small_stream, narrow), task1_bias(small_stream, wide))
        assert np.array_equal(narrow.task1_predictions, wide.task1_predictions)
        assert_same_traces(narrow.arc_traces, wide.arc_traces)
        assert probes[np.float32] == probes[np.float64]
        assert len(probes[np.float32]) == 3  # stages 2 and 3 score past tasks


class TestOtdValidation:
    def test_no_traces_reports_absent_precisions(self):
        report = otd_validation([])
        assert report.assumption1_precision is None
        assert report.assumption2_precision is None
        assert report.assumption1_rate == 0.0
        assert report.assumption2_rate == 0.0

    def test_all_flags_correct_gives_precision_one(self):
        from arcbench.arc import RECORD_DTYPE
        from arcbench.harness import StageTrace
        from arcbench.otd import OtdDecision

        records = np.zeros(3, RECORD_DTYPE).view(np.recarray)
        records.initial_class = records.final_class = [0, 3, 2]
        records.decision = np.array([OtdDecision.PAST_CORRECT, OtdDecision.PAST_MISCLASSIFIED,
                                     OtdDecision.PASSTHROUGH], dtype=object)
        records.confidence = records.masked_confidence = 0.9
        records.ratio = 1.0
        trace = StageTrace(
            stage=2,
            records=records,
            true_labels=np.array([0, 1, 2]),
            true_tasks=np.array([1, 1, 2]),
            retention_updates=1,
        )
        report = otd_validation([trace])
        assert report.assumption1_precision == 1.0
        assert report.assumption2_precision == 1.0
        assert report.assumption1_rate == pytest.approx(1 / 3)
        assert report.samples == 3

    def test_empty_flags(self, small_stream):
        cfg = ArcConfig(batch_size=8, beta=1.0, gamma=0.0)
        res = run_stream(small_stream, FAST_TRAIN, cfg, seed=5)
        report = otd_validation(res.arc_traces)
        if report.flagged1 == 0:
            assert report.assumption1_precision is None
        assert 0.0 <= report.assumption1_rate <= 1.0

    def test_counts_consistent(self, small_run):
        report = otd_validation(small_run.arc_traces)
        assert report.flagged1_true <= report.flagged1
        assert report.flagged2_true <= report.flagged2
        assert report.samples == sum(len(t.records) for t in small_run.arc_traces)
        if report.flagged1:
            assert report.assumption1_precision == report.flagged1_true / report.flagged1


class TestLinearProbe:
    def test_single_task_has_no_rows(self):
        spec = SyntheticSpec(num_tasks=1, step=2, dim=6, train_per_class=8,
                             test_per_class=6, seed=3)
        rows = linear_probe_experiment(generate_synthetic(spec), FAST_TRAIN, seed=3)
        assert rows == []

    def test_separable_probe_accuracy_near_one(self):
        stream = generate_synthetic(SEPARABLE_SPEC)
        rows = linear_probe_experiment(stream, TrainConfig(epochs=10, lr=0.5, batch_size=16,
                                                           weight_decay=0.0), seed=2)
        for row in rows:
            assert row.independent_accuracy >= 0.98

    def test_probe_beats_shared_on_first_task(self, small_stream):
        rows = linear_probe_experiment(small_stream, FAST_TRAIN, seed=5)
        final = [r for r in rows if r.stage == 3 and r.task == 1]
        assert len(final) == 1
        assert final[0].independent_accuracy >= final[0].shared_accuracy

    def test_deterministic(self, small_stream):
        a = linear_probe_experiment(small_stream, FAST_TRAIN, seed=5)
        b = linear_probe_experiment(small_stream, FAST_TRAIN, seed=5)
        assert a == b

    def test_each_probe_fitted_once_at_its_key(self, small_stream, monkeypatch, tmp_path):
        # a file, not a list: the training child may claim a stage and fit its probe
        log = tmp_path / "probe_seeds.log"
        fit = harness.fit_task

        def fit_task(*args, seed):
            if seed[2] == PROBE_TAG:
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{seed}\n")
            return fit(*args, seed=seed)

        monkeypatch.setattr(harness, "fit_task", fit_task)
        rows = linear_probe_experiment(small_stream, FAST_TRAIN, seed=5)
        n, step = SMALL_SPEC.num_tasks, SMALL_SPEC.step
        probe_seeds = sorted(log.read_text(encoding="utf-8").splitlines())
        assert probe_seeds == [str((5, 0, PROBE_TAG, i)) for i in range(1, n)]
        for i in range(1, n):
            train, test = small_stream.train[i - 1], small_stream.test[i - 1]
            base = step * (i - 1)
            probe = fit(new_head(SMALL_SPEC.dim, step), train.features, train.labels - base,
                        FAST_TRAIN, seed=(5, 0, PROBE_TAG, i))
            direct = float(np.mean(forward(probe, test.features).argmax(axis=1)
                                   == test.labels - base))
            accuracies = [row.independent_accuracy for row in rows if row.task == i]
            assert accuracies == [direct] * (n - i)


def fail_probe_fits(monkeypatch, fail):
    """Patch harness.fit_task so that probe fits (seeds tagged PROBE_TAG) call
    fail(seed) first; the shared head's fits run as before."""
    fit = harness.fit_task

    def fit_task(*args, seed):
        if seed[2] == PROBE_TAG:
            fail(seed)
        return fit(*args, seed=seed)

    monkeypatch.setattr(harness, "fit_task", fit_task)


class TestProbeFits:
    @needs_fork
    def test_rows_equal_with_one_cpu(self, small_stream, monkeypatch):
        rows = linear_probe_experiment(small_stream, FAST_TRAIN, seed=5)
        fit_pids = []
        fit = harness.fit_task

        def fit_task(*args, **kwargs):
            fit_pids.append(os.getpid())
            return fit(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "fit_task", fit_task)
        assert linear_probe_experiment(small_stream, FAST_TRAIN, seed=5) == rows
        assert fit_pids == [os.getpid()] * (3 + 2)  # 3 shared stages, one probe per past task

    def test_probe_fit_error_reaches_parent(self, small_stream, monkeypatch):
        def fail(seed):
            raise ValueError(f"probe fit {seed} failed")

        fail_probe_fits(monkeypatch, fail)
        with pytest.raises(ValueError, match=r"^probe fit \(5, 0, 14, 1\) failed$"):
            linear_probe_experiment(small_stream, FAST_TRAIN, seed=5)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_work_error_stops_the_training_child(self, small_stream, monkeypatch):
        parent = os.getpid()
        children = []

        def failing_forward(*args):
            if os.getpid() == parent:
                children.append(len(multiprocessing.active_children()))
                raise KeyError("work failed")
            time.sleep(60)  # the child's first score blocks it until it is stopped

        monkeypatch.setattr(harness, "forward", failing_forward)
        start = time.monotonic()
        with pytest.raises(KeyError, match="work failed"):
            linear_probe_experiment(small_stream, FAST_TRAIN, seed=5)
        assert time.monotonic() - start < 30
        assert children == [1]
        assert multiprocessing.active_children() == []


class TestSubstreamKeys:
    def test_probe_keys_seed_no_other_stream(self, monkeypatch):
        """Every key that data and harness draw at the default layout (10 tasks
        of 10 classes; replay on so that its keys are drawn too), recorded as
        drawn, against the probe keys. Keys compare by their seed state: keys
        of up to four words that differ only by trailing zeros seed the same
        stream, so (s, t, 11) and (s, t, 11, 0) are one key."""
        seed = 3
        drawn = []
        for module in (core, data, harness):
            original = module.substream

            def recording(*key, original=original):
                drawn.append(key)
                return original(*key)

            monkeypatch.setattr(module, "substream", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        spec = SyntheticSpec(dim=2, train_per_class=2, test_per_class=1, seed=seed)
        layout = TaskLayout(spec.num_tasks, spec.step)
        cfg = TrainConfig(epochs=1, replay_per_class=1)
        stream = generate_synthetic(spec)
        run_stream(stream, cfg, ArcConfig(), seed)
        others = set(drawn)
        drawn.clear()
        linear_probe_experiment(stream, cfg, seed)
        probes = {(seed, 0, PROBE_TAG, i) for i in range(1, spec.num_tasks)}
        assert probes <= set(drawn)
        others |= set(drawn) - probes

        stages = range(1, spec.num_tasks + 1)
        assert {(seed, t, harness.TRAIN_TAG) for t in stages} <= others
        assert {(seed, t, harness.EVAL_TAG) for t in stages} <= others
        assert {(seed, t, harness.REPLAY_TAG, c)
                for t in stages[:-1] for c in layout.class_range(t)} <= others
        # in-process training stops at the last head; a training child goes on
        # to draw the last stage's replay picks
        others |= {(seed, stages[-1], harness.REPLAY_TAG, c)
                   for c in layout.class_range(stages[-1])}
        assert {(seed, t, c, code)
                for t in stages for c in layout.class_range(t) for code in (0, 1, 2)} <= others

        def state(key):
            return tuple(np.random.SeedSequence(key).generate_state(4))

        other_states = {state(key) for key in others}
        assert not {state(key) for key in probes} & other_states
        # the check has teeth: the stage-2 probe key (seed, 2, PROBE_TAG, 1)
        # is class 14's test-draw key
        assert state((seed, 2, PROBE_TAG, 1)) in other_states


class TestAblationGrid:
    def test_empty_variant_list(self, small_stream):
        assert ablation_grid(small_stream, FAST_TRAIN, [], seed=5) == []

    def test_one_report_per_variant(self, small_stream):
        cfgs = [ArcConfig(batch_size=8, beta=b, gamma=0.8)
                for b in (0.6, 0.7, 0.8, 0.9)]
        matrices = ablation_grid(small_stream, FAST_TRAIN, cfgs, seed=5)
        assert len(matrices) == 4
        for r in matrices:
            assert isinstance(r, RMatrix)
            assert r.num_tasks == SMALL_SPEC.num_tasks

    def test_identity_variant_matches_run_stream(self, small_stream, small_run):
        r, = ablation_grid(small_stream, FAST_TRAIN, [ArcConfig(batch_size=8)], seed=5)
        assert np.array_equal(r.values, small_run.r_with_arc.values, equal_nan=True)

    @pytest.mark.parametrize("base, arc_lasts", [
        (ArcConfig(batch_size=8), (False,)),
        (ArcConfig(batch_size=8), (True,)),
        (ArcConfig(batch_size=8, correction=False), (False,)),
        (ArcConfig(batch_size=8), (False, True)),
    ], ids=["default", "arc_last", "no_correction", "mixed_arc_last"])
    def test_grouped_grid_equals_one_config_at_a_time(self, small_stream, base, arc_lasts):
        cfgs = [
            replace(base, retention_loss=loss, temperature=temperature, w_mode=w,
                    beta=beta, gamma=gamma, arc_last=arc_last)
            for loss in ("ce", "em", "both") for temperature in (2.0, 1.0)
            for w in ("ratio", "raw") for beta in (0.0, 0.9) for gamma in (0.7, 1.0)
            for arc_last in arc_lasts
        ]
        cfgs.insert(7, cfgs[20])  # a duplicate keeps its place
        matrices = ablation_grid(small_stream, FAST_TRAIN, cfgs, seed=5)
        # each config evaluated on its own over the same training run's heads
        expected = []
        for traces in pipeline_traces(small_stream, FAST_TRAIN, cfgs, seed=5):
            rows = []
            for trace in traces:
                correct = trace.records.final_class == trace.true_labels
                rows.append([correct[trace.true_tasks == i].mean()
                             for i in range(1, trace.stage + 1)])
            expected.append(RMatrix.from_rows(rows))
        assert len(matrices) == len(expected)
        for got, want in zip(matrices, expected):
            assert np.array_equal(got.values, want.values, equal_nan=True)
        assert len({average_accuracy(r) for r in matrices}) > 1


class TestPipelinePasses:
    """Each experiment shuffles a stage's test sets once and runs the pipeline
    once per head trajectory at each stage (README: 12 passes per stage for
    the default 240-variant ablate grid)."""

    def count(self, monkeypatch, experiment):
        """(arc_evaluate calls, EVAL_TAG keys drawn) while experiment() runs in
        this process."""
        calls, keys = [], []

        def arc_evaluate(*args, **kwargs):
            calls.append(1)
            return original_evaluate(*args, **kwargs)

        def substream(*key):
            if key[2:] == (harness.EVAL_TAG,):
                keys.append(key)
            return original_substream(*key)

        original_evaluate, original_substream = harness.arc_evaluate, harness.substream
        with monkeypatch.context() as m:
            m.setattr(harness, "trains_in_child", lambda: False)
            m.setattr(harness, "arc_evaluate", arc_evaluate)
            m.setattr(harness, "substream", substream)
            experiment()
        return len(calls), keys

    def test_one_pass_per_stage_and_trajectory(self, small_stream, monkeypatch):
        n, seed = SMALL_SPEC.num_tasks, 5
        stage_keys = [(seed, t, harness.EVAL_TAG) for t in range(1, n + 1)]
        cfg = ArcConfig(batch_size=8)
        grid = [arc for _, arc in RunConfig(_effective_config({}, {})).ablate_cells]
        assert len(grid) == 240
        assert len({tuple(arc.trajectory().values()) for arc in grid}) == 12
        for experiment, passes in [
            (lambda: run_stream(small_stream, FAST_TRAIN, cfg, seed), n),
            (lambda: pipeline_traces(small_stream, FAST_TRAIN, [cfg] * 3, seed), 3 * n),
            (lambda: ablation_grid(small_stream, FAST_TRAIN, grid, seed), 12 * n),
        ]:
            assert self.count(monkeypatch, experiment) == (passes, stage_keys)
