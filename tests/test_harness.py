import numpy as np
import pytest

from arcbench.arc import ArcConfig
from arcbench.core import TaskLayout, TrainConfig
from arcbench.data import SyntheticSpec, generate_synthetic
from arcbench.otd import Thresholds
from arcbench.harness import (
    RMatrix,
    Variant,
    ablation_grid,
    average_accuracy,
    bias_histogram,
    evaluate_stages,
    forgetting,
    linear_probe_experiment,
    otd_validation,
    run_stream,
    train_sequence,
)

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
    n = len(final_row)
    r = RMatrix.empty(n)
    diag = diag if diag is not None else [1.0] * n
    for t in range(1, n + 1):
        for i in range(1, t + 1):
            if t == n:
                r.set_entry(t, i, final_row[i - 1])
            elif i == t:
                r.set_entry(t, i, diag[i - 1])
            else:
                r.set_entry(t, i, 0.5)
    return r


class TestMetrics:
    def test_average_accuracy_worked_example(self):
        r = build_r([0.6, 0.7, 0.95])
        assert average_accuracy(r) == pytest.approx(0.75, abs=1e-12)

    def test_average_accuracy_extremes(self):
        assert average_accuracy(build_r([1.0, 1.0, 1.0])) == 1.0
        assert average_accuracy(build_r([0.0, 0.0])) == 0.0

    def test_average_accuracy_incomplete_rejected(self):
        r = RMatrix.empty(2)
        r.set_entry(1, 1, 0.5)
        with pytest.raises(ValueError):
            average_accuracy(r)

    def test_forgetting_worked_examples(self):
        r = RMatrix.empty(2)
        r.set_entry(1, 1, 1.0)
        r.set_entry(2, 1, 0.6)
        r.set_entry(2, 2, 0.9)
        assert forgetting(r) == pytest.approx(0.4, abs=1e-12)
        r3 = build_r([0.6, 0.7, 0.95], diag=[1.0, 0.9, 0.95])
        assert forgetting(r3) == pytest.approx(0.3, abs=1e-12)

    def test_forgetting_constant_columns_is_zero(self):
        r = RMatrix.empty(3)
        for t in range(1, 4):
            for i in range(1, t + 1):
                r.set_entry(t, i, 0.8)
        assert forgetting(r) == 0.0

    def test_forgetting_single_task_rejected(self):
        r = RMatrix.empty(1)
        r.set_entry(1, 1, 1.0)
        with pytest.raises(ValueError):
            forgetting(r)


class TestBiasHistogram:
    LAYOUT = TaskLayout(num_tasks=3, step=2)

    def test_all_correct_gives_zeros(self):
        labels = np.array([0, 1, 0])
        counts = bias_histogram(labels.copy(), labels, self.LAYOUT, visible_tasks=3)
        assert np.array_equal(counts, [0, 0, 0])

    def test_maximal_bias(self):
        labels = np.array([0, 1, 1, 0])
        predicted = np.array([4, 5, 4, 0])  # three wrong, all in task 3's range
        counts = bias_histogram(predicted, labels, self.LAYOUT, visible_tasks=3)
        assert np.array_equal(counts, [0, 0, 3])

    def test_conservation(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, 50)
        predicted = rng.integers(0, 6, 50)
        counts = bias_histogram(predicted, labels, self.LAYOUT, visible_tasks=3)
        assert counts.sum() == np.sum(predicted != labels)

    def test_needs_two_tasks(self):
        with pytest.raises(ValueError):
            bias_histogram(np.array([0]), np.array([0]), self.LAYOUT, visible_tasks=1)


class TestRunStream:
    def test_single_task_matrices_identical(self):
        spec = SyntheticSpec(num_tasks=1, step=3, dim=6, train_per_class=8,
                             test_per_class=6, seed=1)
        res = run_stream(generate_synthetic(spec), FAST_TRAIN, ArcConfig(), seed=1)
        assert np.array_equal(res.r_with_arc.values, res.r_without_arc.values)
        assert res.metrics_with_arc.forgetting is None
        assert res.bias_histogram is None

    def test_r_matrix_fill(self, small_run):
        for r in (small_run.r_with_arc, small_run.r_without_arc):
            for t in range(1, 4):
                row = r.row(t)
                assert len(row) == t
                assert np.all((row >= 0) & (row <= 1))
                assert np.all(np.isnan(r.values[t - 1, t:]))

    def test_deterministic_reports(self, small_stream, small_run):
        again = run_stream(small_stream, FAST_TRAIN, ArcConfig(batch_size=8), seed=5)
        assert again.metrics_with_arc == small_run.metrics_with_arc
        assert again.metrics_without_arc == small_run.metrics_without_arc
        assert np.array_equal(again.r_with_arc.values, small_run.r_with_arc.values, equal_nan=True)

    def test_arc_off_equivalence(self, small_stream):
        cfg = ArcConfig(retention_enabled=False, correction_enabled=False, batch_size=8)
        res = run_stream(small_stream, FAST_TRAIN, cfg, seed=5)
        assert np.allclose(res.r_with_arc.values, res.r_without_arc.values, equal_nan=True)

    def test_evaluation_isolation(self, small_stream, small_run):
        # heads after each stage must match a training-only pass bit for bit
        heads = train_sequence(small_stream, FAST_TRAIN, seed=5)
        for trained, evaluated in zip(heads, small_run.stage_heads):
            assert np.array_equal(trained.weights, evaluated.weights)
            assert np.array_equal(trained.bias, evaluated.bias)

    def test_metrics_recomputable_from_r(self, small_run):
        for metrics, r in (
            (small_run.metrics_with_arc, small_run.r_with_arc),
            (small_run.metrics_without_arc, small_run.r_without_arc),
        ):
            assert metrics.average_accuracy == pytest.approx(average_accuracy(r), abs=1e-12)
            assert metrics.forgetting == pytest.approx(forgetting(r), abs=1e-12)

    def test_bias_histogram_conservation(self, small_run):
        wrong = np.sum(small_run.task1_predictions != small_run.task1_labels)
        assert small_run.bias_histogram.sum() == wrong

    def test_arc_last_only_adapts_final_stage(self, small_stream):
        cfg = ArcConfig(arc_last=True, batch_size=8,
                        thresholds=Thresholds(0.0, 10.0))
        res = run_stream(small_stream, FAST_TRAIN, cfg, seed=5)
        for trace in res.arc_traces[:-1]:
            assert trace.retention_updates == 0

    def test_replay_buffer_reaches_training(self, small_stream):
        cfg = TrainConfig(epochs=4, lr=1.0, batch_size=16, weight_decay=1e-3,
                          replay_per_class=3)
        res = run_stream(small_stream, cfg, ArcConfig(batch_size=8), seed=5)
        plain = run_stream(small_stream, FAST_TRAIN, ArcConfig(batch_size=8), seed=5)
        assert not np.array_equal(res.stage_heads[-1].weights, plain.stage_heads[-1].weights)


class TestEvaluateStages:
    def test_one_head_per_stage_required(self, small_stream):
        heads = train_sequence(small_stream, FAST_TRAIN, seed=5)
        with pytest.raises(ValueError, match="one head per stage"):
            list(evaluate_stages(small_stream, heads[:-1], [ArcConfig(batch_size=8)], seed=5))


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
            final_classes=records.final_class[None, :],
            true_labels=np.array([0, 1, 2]),
            true_tasks=np.array([1, 1, 2]),
            retention_updates=1,
            warnings=[],
        )
        report = otd_validation([trace])
        assert report.assumption1_precision == 1.0
        assert report.assumption2_precision == 1.0
        assert report.assumption1_rate == pytest.approx(1 / 3)
        assert report.samples == 3

    def test_empty_flags(self, small_stream):
        cfg = ArcConfig(batch_size=8,
                        thresholds=Thresholds(1.0, 0.0))
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


class TestAblationGrid:
    def test_empty_variant_list(self, small_stream):
        assert ablation_grid(small_stream, FAST_TRAIN, ArcConfig(), [], seed=5) == []

    def test_one_report_per_variant(self, small_stream):
        variants = [Variant(beta=b) for b in (0.6, 0.7, 0.8, 0.9)]
        reports = ablation_grid(small_stream, FAST_TRAIN, ArcConfig(batch_size=8),
                                variants, seed=5)
        assert len(reports) == 4
        assert [v.beta for v, _ in reports] == [0.6, 0.7, 0.8, 0.9]

    def test_identity_variant_matches_run_stream(self, small_stream, small_run):
        base = ArcConfig(batch_size=8)
        identity = Variant(loss="both", temperature="on", w_mode="ratio",
                           beta=base.thresholds.beta, gamma=base.thresholds.gamma)
        (_, report), = ablation_grid(small_stream, FAST_TRAIN, base, [identity], seed=5)
        assert report.average_accuracy == small_run.metrics_with_arc.average_accuracy
        assert report.forgetting == small_run.metrics_with_arc.forgetting

    @pytest.mark.parametrize("base", [
        ArcConfig(batch_size=8),
        ArcConfig(batch_size=8, arc_last=True),
        ArcConfig(batch_size=8, correction_enabled=False),
    ], ids=["default", "arc_last", "no_correction"])
    def test_grouped_grid_equals_one_config_at_a_time(self, small_stream, base):
        variants = [
            Variant(loss=loss, temperature=temp, w_mode=w, beta=beta, gamma=gamma)
            for loss in ("ce", "em", "both") for temp in ("on", "off")
            for w in ("ratio", "raw") for beta in (0.0, 0.9) for gamma in (0.7, 1.0)
        ]
        variants.insert(7, variants[20])  # a duplicate keeps its place
        reports = ablation_grid(small_stream, FAST_TRAIN, base, variants, seed=5)
        assert [v for v, _ in reports] == variants
        expected = [run_stream(small_stream, FAST_TRAIN, v.apply(base), seed=5).metrics_with_arc
                    for v in variants]
        assert [report for _, report in reports] == expected
        assert len({report.average_accuracy for _, report in reports}) > 1

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            Variant(loss="cheese")
        with pytest.raises(ValueError, match="temperature"):
            Variant(temperature="lukewarm")
