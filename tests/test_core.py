import math

import numpy as np
import pytest

from arcbench.core import (
    LOSSES,
    LinearHead,
    TaskLayout,
    TrainConfig,
    expand_head,
    fit_task,
    forward,
    loss_gradient,
    new_head,
    sgd_step,
    softmax,
)
from arcbench.seeding import substream

from oracles import cross_entropy, entropy, fd_gradient, mp_matvec, relative_error, task_of_class


def random_head(rng, k, d):
    return LinearHead(rng.standard_normal((k, d)), rng.standard_normal(k))


class TestForward:
    def test_identity_weights(self):
        head = LinearHead(np.eye(2), np.zeros(2))
        assert np.array_equal(forward(head, np.array([[3.0, -1.0]]))[0], [3.0, -1.0])

    def test_zero_weights_return_bias(self):
        head = LinearHead(np.zeros((2, 3)), np.array([1.0, 2.0]))
        assert np.array_equal(forward(head, np.array([[4.0, 5.0, 6.0]]))[0], [1.0, 2.0])

    def test_matches_high_precision_matvec(self):
        rng = np.random.default_rng(7)
        head = random_head(rng, k=6, d=4)
        x = rng.standard_normal(4)
        expected = mp_matvec(head.weights, head.bias, x)
        assert np.allclose(forward(head, x[None])[0], expected, rtol=0, atol=1e-13)

    def test_dimension_mismatch_rejected(self):
        head = new_head(dim=4, step=2)
        with pytest.raises(ValueError):
            forward(head, np.zeros((1, 3)))

    def test_single_vector_rejected(self):
        head = new_head(dim=4, step=2)
        with pytest.raises(ValueError, match=r"^feature shape \(4,\) incompatible"):
            forward(head, np.zeros(4))


class TestSoftmax:
    def test_exact_exponentials(self):
        p = softmax(np.array([math.log(2.0), 0.0, 0.0]))
        assert np.allclose(p, [0.5, 0.25, 0.25], atol=1e-15)

    def test_constant_logits_uniform(self):
        for c in (-7.5, 0.0, 3e5):
            assert np.allclose(softmax(np.full(4, c)), 0.25, atol=1e-15)

    def test_large_shift_does_not_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] > 1 - 1e-12 and p[1] < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            softmax(np.array([]))


class TestLosses:
    def test_cross_entropy_exact_values(self):
        assert cross_entropy(np.array([0.5, 0.25, 0.25]), 0) == pytest.approx(math.log(2), abs=1e-15)
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0
        assert cross_entropy(np.full(10, 0.1), 3) == pytest.approx(math.log(10), abs=1e-15)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_entropy_one_hot_is_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_entropy_uniform_is_log_k(self):
        for k in (2, 3, 10):
            assert entropy(np.full(k, 1.0 / k)) == pytest.approx(math.log(k), abs=1e-12)

    def test_entropy_dyadic(self):
        assert entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(1.5 * math.log(2), abs=1e-15)


class TestRetentionGradient:
    """loss_gradient, the one softmax-loss gradient: with the entropy term
    off it is also training's gradient (TestFitTask pins that bit for bit)."""

    def test_uniform_logits_reduce_to_cross_entropy_gradient(self):
        # The entropy term is stationary at the uniform distribution, so the
        # combined gradient collapses to (p - onehot) x^T up to float roundoff.
        head = LinearHead(np.zeros((5, 3)), np.zeros(5))
        x = np.array([0.3, -1.2, 2.0])
        z, rows, label = forward(head, x[None]), x[None], np.array([2])
        dw, db = loss_gradient(z, rows, label, "both")
        dw_ce, db_ce = loss_gradient(z, rows, label, "ce")
        assert np.allclose(dw, dw_ce, rtol=0, atol=1e-14)
        assert np.allclose(db, db_ce, rtol=0, atol=1e-14)
        dw_em, db_em = loss_gradient(z, rows, label, "em")
        assert np.max(np.abs(dw_em)) < 1e-14
        assert np.max(np.abs(db_em)) < 1e-14

    def test_one_hot_prediction_has_vanishing_gradient(self):
        head = LinearHead(np.zeros((4, 2)), np.array([60.0, 0.0, 0.0, 0.0]))
        x = np.array([[0.5, 0.5]])
        dw, db = loss_gradient(forward(head, x), x, np.array([0]), "both")
        assert np.max(np.abs(dw)) < 1e-12
        assert np.max(np.abs(db)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        head = random_head(rng, k=6, d=5)
        x = rng.standard_normal(5)

        def loss(w, b):
            probe = LinearHead(w, b)
            p = softmax(forward(probe, x[None])[0])
            return cross_entropy(p, 4) + entropy(p)

        dw, db = loss_gradient(forward(head, x[None]), x[None], np.array([4]), "both")
        fd_dw, fd_db = fd_gradient(loss, head.weights, head.bias, step=1e-4)
        assert relative_error(dw, fd_dw) <= 1e-5
        assert relative_error(db, fd_db) <= 1e-5

    def test_single_loss_terms_match_finite_differences(self):
        rng = np.random.default_rng(23)
        head = random_head(rng, k=4, d=3)
        x = rng.standard_normal(3)
        for terms in ("ce", "em"):

            def loss(w, b):
                probe = LinearHead(w, b)
                p = softmax(forward(probe, x[None])[0])
                return cross_entropy(p, 1) if terms == "ce" else entropy(p)

            dw, db = loss_gradient(forward(head, x[None]), x[None], np.array([1]), terms)
            fd_dw, fd_db = fd_gradient(loss, head.weights, head.bias)
            assert relative_error(dw, fd_dw) <= 1e-5
            assert relative_error(db, fd_db) <= 1e-5

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("terms", ["both", "ce", "em"])
    def test_batch_mean_matches_finite_differences(self, n, terms):
        rng = np.random.default_rng(29 + n)
        head = random_head(rng, k=4, d=3)
        x = rng.standard_normal((n, 3))
        labels = rng.integers(0, 4, n)

        def loss(w, b):
            probe = LinearHead(w, b)
            total = 0.0
            for xi, yi in zip(x, labels):
                p = softmax(forward(probe, xi[None])[0])
                if terms in ("both", "ce"):
                    total += cross_entropy(p, int(yi))
                if terms in ("both", "em"):
                    total += entropy(p)
            return total / n

        dw, db = loss_gradient(forward(head, x), x, labels, terms)
        fd_dw, fd_db = fd_gradient(loss, head.weights, head.bias)
        assert relative_error(dw, fd_dw) <= 1e-5
        assert relative_error(db, fd_db) <= 1e-5

    @pytest.mark.parametrize("loss", ["none", "", "CE", None])
    def test_unknown_loss_rejected(self, loss):
        x = np.ones((1, 2))
        with pytest.raises(ValueError) as err:
            loss_gradient(forward(new_head(2, 3), x), x, np.array([0]), loss)
        assert str(err.value) == f"loss must be one of {LOSSES}, got {loss!r}"


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(0)
        head = random_head(rng, 3, 2)
        out = sgd_step(head, np.zeros((3, 2)), np.zeros(3), lr=0.5)
        assert np.array_equal(out.weights, head.weights)
        assert np.array_equal(out.bias, head.bias)

    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(1)
        head = random_head(rng, 3, 2)
        out = sgd_step(head, rng.standard_normal((3, 2)), rng.standard_normal(3), lr=0.0)
        assert np.array_equal(out.weights, head.weights)

    def test_unit_lr_with_own_parameters_zeroes_head(self):
        rng = np.random.default_rng(2)
        head = random_head(rng, 3, 2)
        out = sgd_step(head, head.weights, head.bias, lr=1.0)
        assert np.all(out.weights == 0.0)
        assert np.all(out.bias == 0.0)

    def test_non_finite_gradient_rejected(self):
        head = new_head(2, 2)
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            sgd_step(head, bad, np.zeros(2), lr=0.1)


class TestExpandHead:
    def test_existing_rows_preserved(self):
        rng = np.random.default_rng(3)
        layout = TaskLayout(num_tasks=2, step=5)
        head = LinearHead(rng.standard_normal((5, 4)), rng.standard_normal(5))
        grown = expand_head(head, layout)
        assert grown.num_classes == 10
        assert np.array_equal(grown.weights[:5], head.weights)
        assert np.array_equal(grown.bias[:5], head.bias)

    def test_repeated_expansion_reaches_full_width(self):
        layout = TaskLayout(num_tasks=4, step=3)
        head = new_head(dim=2, step=3)
        for _ in range(layout.num_tasks - 1):
            head = expand_head(head, layout)
        assert head.num_classes == layout.num_classes
        with pytest.raises(ValueError):
            expand_head(head, layout)

    def test_width_not_whole_tasks_rejected(self):
        head = LinearHead(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="inconsistent"):
            expand_head(head, TaskLayout(num_tasks=3, step=3))

    def test_new_rows_score_zero(self):
        rng = np.random.default_rng(4)
        layout = TaskLayout(num_tasks=2, step=3)
        head = LinearHead(rng.standard_normal((3, 6)), rng.standard_normal(3))
        grown = expand_head(head, layout)
        z = forward(grown, rng.standard_normal((1, 6)))[0]
        assert np.all(z[3:] == 0.0)


class TestFitTask:
    def test_separable_two_class_toy(self):
        rng = np.random.default_rng(3)
        n = 50
        pos = np.array([2.0, 2.0]) + 0.3 * rng.standard_normal((n, 2))
        neg = -np.array([2.0, 2.0]) + 0.3 * rng.standard_normal((n, 2))
        x = np.vstack([neg, pos])
        y = np.array([0] * n + [1] * n)
        head = fit_task(new_head(2, 2), x, y, TrainConfig(epochs=20, lr=0.1), seed=3)
        acc = np.mean(forward(head, x).argmax(axis=1) == y)
        assert acc >= 0.99

    def test_zero_epochs_is_identity(self):
        rng = np.random.default_rng(5)
        head = random_head(rng, 2, 3)
        out = fit_task(head, rng.standard_normal((10, 3)), rng.integers(0, 2, 10),
                       TrainConfig(epochs=0), seed=0)
        assert np.array_equal(out.weights, head.weights)
        assert np.array_equal(out.bias, head.bias)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 3))
        y = rng.integers(0, 4, 40)
        cfg = TrainConfig(epochs=5, lr=0.2, batch_size=16)
        a = fit_task(new_head(3, 4), x, y, cfg, seed=(1, 2))
        b = fit_task(new_head(3, 4), x, y, cfg, seed=(1, 2))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_step_is_loss_gradient_plus_decay(self):
        """One epoch in one batch of n = 40 (not a power of two, so where the
        1/n scaling happens shows in the last bit): the shared gradient on
        training's matmul logits, plus decay, then one SGD step."""
        rng = np.random.default_rng(12)
        head = random_head(rng, k=3, d=5)
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 3, 40)
        cfg = TrainConfig(epochs=1, batch_size=64, lr=0.3, weight_decay=1e-2)
        order = substream(9).permutation(40)
        rows = x[order]
        dw, db = loss_gradient(rows @ head.weights.T + head.bias, rows, y[order], "ce")
        dw += cfg.weight_decay * head.weights
        expected = sgd_step(head, dw, db, cfg.lr)
        out = fit_task(head, x, y, cfg, seed=9)
        assert np.array_equal(out.weights, expected.weights)
        assert np.array_equal(out.bias, expected.bias)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_task(new_head(2, 2), np.zeros((0, 2)), np.zeros(0, dtype=int),
                     TrainConfig(), seed=0)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            fit_task(new_head(2, 2), np.zeros((3, 2)), np.array([0, 1, 2]),
                     TrainConfig(), seed=0)

    @pytest.mark.parametrize("scale", [
        10.0,  # lr * dW overflows in the first step
        1.0,   # the first step leaves a finite head whose next logits overflow
    ])
    def test_overflow_names_learning_rate(self, scale):
        rng = np.random.default_rng(7)
        x = scale * rng.standard_normal((32, 8))
        y = rng.integers(0, 2, 32)
        cfg = TrainConfig(epochs=2, lr=1e308, batch_size=8)
        with pytest.raises(ValueError, match=r"^training overflows at learning rate 1e\+308, "
                                             r"weight decay 0.00015$"):
            fit_task(new_head(8, 2), x, y, cfg)

    @pytest.mark.parametrize("lr", [0.0, -1.0, np.inf, np.nan])
    def test_config_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match=f"^lr must be finite and > 0, got {lr}$"):
            TrainConfig(lr=lr)


class TestTaskLayout:
    def test_class_ranges_are_disjoint_and_contiguous(self):
        layout = TaskLayout(num_tasks=3, step=4)
        seen = []
        for task in range(1, 4):
            seen.extend(layout.class_range(task))
        assert seen == list(range(12))

    def test_task_of_class(self):
        layout = TaskLayout(num_tasks=2, step=3)
        assert [task_of_class(layout, c) for c in range(6)] == [1, 1, 1, 2, 2, 2]
        with pytest.raises(ValueError):
            task_of_class(layout, 6)
