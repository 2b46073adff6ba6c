import numpy as np
import pytest

from arcbench.arc import (
    ArcConfig,
    adaptive_correction,
    adaptive_retention,
    arc_evaluate,
    tss,
)
from arcbench.core import (
    LinearHead,
    forward,
    loss_gradient,
    sgd_step,
    softmax,
)
from arcbench.otd import OtdDecision, Thresholds, confidence

from oracles import cross_entropy, entropy, mp_tss


class TestTss:
    def test_first_stage_score_equals_confidence(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.standard_normal(5)
            scores = tss(z, t=1, s=5, temperature=2.0)
            _, (c,) = confidence(z[None])
            assert scores.shape == (1,)
            assert scores[0] == c  # bitwise: same softmax, exponent zero

    def test_uniform_logits(self):
        scores = tss(np.zeros(4), t=2, s=2, temperature=3.0)
        assert np.allclose(scores, [0.5, 0.25], atol=1e-15)
        assert int(np.argmax(scores)) == 0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal(12)  # t=3, s=4
        for temperature in (1.5, 2.0, 4.0):
            got = tss(z, t=3, s=4, temperature=temperature)
            want = mp_tss(z, t=3, s=4, temperature=temperature)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_temperature_one_is_plain_prefix_softmax(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal(8)
        scores = tss(z, t=4, s=2, temperature=1.0)
        for i in range(1, 5):
            plain = float(np.max(softmax(z[: 2 * i])[2 * (i - 1) : 2 * i]))
            assert scores[i - 1] == plain

    def test_prefix_locality_is_exact(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal(12)
        base = tss(z, t=3, s=4, temperature=2.0)
        z2 = z.copy()
        z2[8:] += rng.standard_normal(4) * 100
        bumped = tss(z2, t=3, s=4, temperature=2.0)
        assert np.array_equal(base[:2], bumped[:2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tss(np.zeros(5), t=2, s=3, temperature=2.0)


class TestAdaptiveCorrection:
    def test_two_task_example(self):
        task, cls, scores = adaptive_correction(np.array([0.0, 0.1]), t=2, s=1, temperature=2.0)
        assert task == 1
        assert cls == 0
        assert scores[0] == 1.0
        assert scores[1] == pytest.approx(1 / (1 + np.exp(-0.1)), abs=1e-15)

    def test_uniform_logits_tie_break(self):
        task, cls, scores = adaptive_correction(np.zeros(6), t=3, s=2, temperature=5.0)
        assert np.allclose(scores, [1 / 2, 1 / 4, 1 / 6], atol=1e-15)
        assert task == 1
        assert cls == 0

    def test_current_task_winner_is_noop_relabel(self):
        z = np.array([0.0, 0.0, 9.0, 8.0])
        task, cls, _ = adaptive_correction(z, t=2, s=2, temperature=2.0)
        assert task == 2
        assert cls == int(np.argmax(z))

    def test_corrected_class_contained_in_chosen_task(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t, s = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            z = 3.0 * rng.standard_normal(s * t)
            task, cls, _ = adaptive_correction(z, t, s, temperature=2.0)
            assert s * (task - 1) <= cls < s * task


class TestAdaptiveRetention:
    def test_converged_batch_barely_moves(self):
        head = LinearHead(np.zeros((3, 2)), np.array([50.0, 0.0, 0.0]), 1)
        x = np.random.default_rng(0).standard_normal((4, 2)) * 0.1
        z = forward(head, x)
        preds = z.argmax(axis=1)
        updated, repreds, ok = adaptive_retention(head, x, z, ArcConfig())
        assert ok
        assert np.max(np.abs(updated.weights - head.weights)) < 1e-8
        assert np.max(np.abs(updated.bias - head.bias)) < 1e-8
        assert np.array_equal(repreds, preds)

    def test_single_sample_matches_manual_composition(self):
        rng = np.random.default_rng(21)
        head = LinearHead(rng.standard_normal((4, 3)), rng.standard_normal(4), 1)
        x = rng.standard_normal(3)
        label = int(forward(head, x).argmax())
        cfg = ArcConfig(lr=0.05)
        rows = x[None, :]
        updated, repreds, ok = adaptive_retention(head, rows, forward(head, rows), cfg)
        dw, db, _ = loss_gradient(forward(head, x[None]), x[None], np.array([label]), True, True)
        manual = sgd_step(head, dw, db, cfg.lr)
        assert ok
        assert np.array_equal(updated.weights, manual.weights)
        assert np.array_equal(updated.bias, manual.bias)
        assert repreds[0] == int(forward(manual, x).argmax())

    def test_biased_head_loss_strictly_decreases(self):
        rng = np.random.default_rng(31)
        s, t, d = 4, 2, 8
        means = rng.standard_normal((s * t, d)) * 2.0
        head = LinearHead(means.copy(), np.zeros(s * t), t)
        head.bias[s:] += 2.0  # inflate current-task rows: the bias under test
        past_x = means[rng.integers(0, s, 64)] + 0.3 * rng.standard_normal((64, d))
        preds = forward(head, past_x).argmax(axis=1)
        keep = np.flatnonzero(preds < s)[:32]
        assert len(keep) == 32
        x, y = past_x[keep], preds[keep]

        def mean_loss(h):
            total = 0.0
            for xi, yi in zip(x, y):
                p = softmax(forward(h, xi))
                total += cross_entropy(p, int(yi)) + entropy(p)
            return total / len(x)

        before = mean_loss(head)
        updated, _, ok = adaptive_retention(head, x, forward(head, x), ArcConfig(lr=0.01))
        assert ok
        assert mean_loss(updated) < before

    @pytest.mark.parametrize("dim, scale", [
        (2, 10.0),  # lr * dW overflows in the update itself
        (4, 1.0),   # a finite head whose logits overflow to +-inf
        (2, 1.0),   # finite logits of +-1.5e308, whose softmax overflows
    ])
    def test_overflowing_step_is_skipped(self, dim, scale):
        head = LinearHead(np.zeros((2, dim)), np.zeros(2), 1)
        x = np.full((1, dim), scale)
        updated, repreds, ok = adaptive_retention(head, x, forward(head, x), ArcConfig(lr=1e308))
        assert not ok
        assert updated is head
        assert repreds.tolist() == [0]

    def test_empty_batch_is_identity(self):
        head = LinearHead(np.ones((2, 2)), np.zeros(2), 1)
        updated, repreds, ok = adaptive_retention(
            head, np.zeros((0, 2)), np.zeros((0, 2)), ArcConfig()
        )
        assert updated is head
        assert len(repreds) == 0
        assert not ok


def toy_eval_setup(rng, t=2, s=2, d=4, n=40):
    """Head whose rows are class means, plus a mixed test batch stream."""
    means = 3.0 * rng.standard_normal((s * t, d))
    head = LinearHead(means.copy(), np.zeros(s * t), t)
    labels = rng.integers(0, s * t, n)
    x = means[labels] + 0.5 * rng.standard_normal((n, d))
    batches = [x[i : i + 16] for i in range(0, n, 16)]
    return head, batches, x, labels


class TestArcEvaluate:
    def test_disabled_pipeline_is_plain_argmax(self):
        rng = np.random.default_rng(41)
        head, batches, x, _ = toy_eval_setup(rng)
        cfg = ArcConfig(retention_enabled=False, correction_enabled=False)
        result = arc_evaluate(head, batches, t=2, s=2, cfgs=[cfg])
        final = np.array([r.final_class for r in result.records])
        assert np.array_equal(final, forward(head, x).argmax(axis=1))
        assert np.array_equal(result.head.weights, head.weights)
        assert result.retention_updates == 0

    def test_first_stage_is_inert(self):
        rng = np.random.default_rng(43)
        head, batches, x, _ = toy_eval_setup(rng, t=1, s=4)
        result = arc_evaluate(head, batches, t=1, s=4,
                              cfgs=[ArcConfig(thresholds=Thresholds(0.0, np.inf))])
        assert all(r.decision is OtdDecision.PASSTHROUGH for r in result.records)
        assert np.array_equal(result.head.weights, head.weights)
        assert result.retention_updates == 0

    def test_deterministic_records(self):
        rng = np.random.default_rng(47)
        head, batches, _, _ = toy_eval_setup(rng)
        cfg = ArcConfig(thresholds=Thresholds(0.5, 0.9))
        a = arc_evaluate(head.copy(), [b.copy() for b in batches], 2, 2, [cfg])
        b = arc_evaluate(head.copy(), [b.copy() for b in batches], 2, 2, [cfg])
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb
        assert np.array_equal(a.head.weights, b.head.weights)

    def test_one_update_per_batch_with_flagged_samples(self):
        rng = np.random.default_rng(53)
        head, batches, _, _ = toy_eval_setup(rng, n=64)
        cfg = ArcConfig(thresholds=Thresholds(beta=0.0, gamma=0.0))  # flag all past-predicted
        result = arc_evaluate(head, batches, 2, 2, [cfg])
        per_batch = [
            any(r.decision is OtdDecision.PAST_CORRECT for r in result.records[i : i + 16])
            for i in range(0, 64, 16)
        ]
        assert result.retention_updates == sum(per_batch)
        assert result.retention_updates > 0

    def test_record_table_columns(self):
        rng = np.random.default_rng(57)
        head, batches, _, _ = toy_eval_setup(rng)
        cfg = ArcConfig(thresholds=Thresholds(0.0, np.inf))
        none = arc_evaluate(head, [], 2, 2, [cfg])
        assert len(none.records) == 0 and none.retention_updates == 0
        with_empty = [batches[0], np.empty((0, head.dim)), *batches[1:]]
        result = arc_evaluate(head, with_empty, 2, 2, [cfg])
        plain = arc_evaluate(head, batches, 2, 2, [cfg])
        # the empty batch is classified, flags nothing and takes no update
        assert result.retention_updates == plain.retention_updates == len(batches)
        assert np.array_equal(result.head.weights, plain.head.weights)
        names = ("initial_class", "final_class", "decision", "retention_applied",
                 "confidence", "masked_confidence", "ratio")
        for records in (none.records, result.records):
            assert isinstance(records, np.recarray)
            assert records.dtype.names == names
            assert records.decision.dtype == object
        assert len(result.records) == sum(len(b) for b in batches)
        for name in names:
            assert np.array_equal(result.records[name], plain.records[name]), name

    def test_input_head_never_mutated(self):
        rng = np.random.default_rng(59)
        head, batches, _, _ = toy_eval_setup(rng)
        snapshot_w = head.weights.copy()
        snapshot_b = head.bias.copy()
        arc_evaluate(head, batches, 2, 2, [ArcConfig(thresholds=Thresholds(0.0, 2.0))])
        assert np.array_equal(head.weights, snapshot_w)
        assert np.array_equal(head.bias, snapshot_b)

    def test_final_differs_only_when_flagged(self):
        rng = np.random.default_rng(61)
        head, batches, _, _ = toy_eval_setup(rng, n=80)
        result = arc_evaluate(head, batches, 2, 2, [ArcConfig()])
        for r in result.records:
            if r.decision is OtdDecision.PASSTHROUGH:
                assert r.final_class == r.initial_class

    def test_non_finite_retention_step_is_skipped(self):
        # weights near 1e-308 keep the logits O(1) for features of 1e308, but
        # the gradient sums 32 rows of |dz| * 1e308 and overflows
        head = LinearHead(np.array([[1e-308, 1e-308], [0.0, 0.0]]), np.zeros(2), 2)
        x = np.full((32, 2), 1e308)
        cfg = ArcConfig(thresholds=Thresholds(beta=0.0, gamma=0.0))
        with np.errstate(over="ignore"):
            result = arc_evaluate(head, [x], t=2, s=1, cfgs=[cfg])
        assert result.retention_updates == 0
        assert result.head is head
        assert all(r.decision is OtdDecision.PAST_CORRECT for r in result.records)
        for r in result.records:
            assert r.final_class == r.initial_class
            assert not r.retention_applied
        assert result.warnings == [
            "batch 0: non-finite retention gradient or update, step skipped"
        ]

    @pytest.mark.parametrize("field, change", [
        ("thresholds.beta", {"thresholds": Thresholds(0.5, 0.8)}),
        ("retention_loss", {"retention_loss": "em"}),
        ("lr", {"lr": 0.2}),
        ("batch_size", {"batch_size": 32}),
        ("retention_enabled", {"retention_enabled": False}),
    ])
    def test_group_must_share_trajectory(self, field, change):
        rng = np.random.default_rng(67)
        head, batches, _, _ = toy_eval_setup(rng)
        with pytest.raises(ValueError, match=f"agree on {field}:"):
            arc_evaluate(head, batches, 2, 2, [ArcConfig(), ArcConfig(**change)])

    def test_group_rows_equal_single_configs(self):
        rng = np.random.default_rng(71)
        head, batches, _, _ = toy_eval_setup(rng, n=80)
        group = [ArcConfig(thresholds=Thresholds(0.5, gamma), w_mode=w, temperature=temp,
                           correction_enabled=correct)
                 for gamma in (0.6, 1.2, np.inf) for w in ("ratio", "raw")
                 for temp in (1.0, 2.0) for correct in (True, False)]
        result = arc_evaluate(head, batches, 2, 2, group)
        assert result.final_classes.shape == (len(group), len(result.records))
        for row, cfg in zip(result.final_classes, group):
            alone = arc_evaluate(head, batches, 2, 2, [cfg])
            assert np.array_equal(row, alone.records.final_class)
            assert np.array_equal(alone.head.weights, result.head.weights)
        assert np.array_equal(result.records.final_class, result.final_classes[0])
        assert len({tuple(row) for row in result.final_classes}) > 1

    def test_bad_batch_shape_rejected(self):
        head = LinearHead(np.zeros((4, 3)), np.zeros(4), 2)
        with pytest.raises(ValueError):
            arc_evaluate(head, [np.zeros((5, 2))], 2, 2, [ArcConfig()])


class TestArcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArcConfig(temperature=0.5)
        for lr in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="lr must be finite and > 0"):
                ArcConfig(lr=lr)
        with pytest.raises(ValueError):
            ArcConfig(w_mode="nope")
        with pytest.raises(ValueError):
            ArcConfig(retention_loss="none")

    def test_arc_last_disables_early_stages(self):
        cfg = ArcConfig(arc_last=True)
        early = cfg.for_stage(is_final_stage=False)
        assert not early.retention_enabled and not early.correction_enabled
        final = cfg.for_stage(is_final_stage=True)
        assert final.retention_enabled and final.correction_enabled
        plain = ArcConfig()
        assert plain.for_stage(False) is plain
