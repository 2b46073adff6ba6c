import math

import numpy as np
import pytest

from arcbench.arc import ArcConfig
from arcbench.core import softmax
from arcbench.otd import (
    OtdDecision,
    classify_sample,
    confidence,
    masked_confidence,
    misclassified,
)

from oracles import mp_softmax


class TestConfidence:
    def test_exact_exponentials(self):
        (k,), (c,) = confidence(np.array([[math.log(2.0), 0.0, 0.0]]))
        assert k == 0
        assert c == pytest.approx(0.5, abs=1e-15)

    def test_tie_breaks_to_lowest_index(self):
        (k,), (c,) = confidence(np.zeros((1, 4)))
        assert k == 0
        assert c == pytest.approx(0.25, abs=1e-15)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(12)
        (k,), (c,) = confidence(z[None])
        probs = mp_softmax(z)
        assert k == int(np.argmax(probs))
        assert c == pytest.approx(float(np.max(probs)), abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence(np.empty((1, 0)))


class TestMaskedConfidence:
    def test_single_past_class(self):
        assert masked_confidence(np.array([[0.0, 0.0]]), s=1)[0] == 1.0

    def test_uniform_prefix(self):
        for c in (-3.0, 0.0, 11.0):
            assert masked_confidence(np.full((1, 4), c), s=2)[0] == pytest.approx(0.5, abs=1e-15)

    def test_equals_prefix_softmax_max(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal(12)  # t=4, s=3 -> prefix of 9
        (got,) = masked_confidence(z[None], s=3)
        assert got == pytest.approx(float(np.max(mp_softmax(z[:9]))), abs=1e-14)
        assert got == float(np.max(softmax(z[:9])))

    def test_first_task_rejected(self):
        with pytest.raises(ValueError):
            masked_confidence(np.array([[0.0, 1.0]]), s=2)


class TestClassifySample:
    def test_confident_past_prediction_flagged(self):
        (rec,) = classify_sample(np.array([[5.0, 0.0]]), s=1, beta=0.8, gamma=0.8)
        assert rec.decision is OtdDecision.PAST_CORRECT
        assert rec.initial_class == 0
        assert rec.confidence == pytest.approx(1 / (1 + math.exp(-5)), abs=1e-15)

    def test_weak_current_prediction_flagged(self):
        (rec,) = classify_sample(np.array([[0.0, 0.1]]), s=1, beta=0.8, gamma=0.8)
        assert rec.decision is OtdDecision.PAST_MISCLASSIFIED
        assert rec.initial_class == 1
        assert rec.masked_confidence == 1.0
        assert rec.ratio == pytest.approx(1 / (1 + math.exp(-0.1)), abs=1e-15)

    def test_first_task_always_passthrough(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.standard_normal((1, 6))
            (rec,) = classify_sample(z, s=6, beta=0.0, gamma=np.inf)
            assert rec.decision is OtdDecision.PASSTHROUGH
            assert np.isnan(rec.masked_confidence)
            assert np.isnan(rec.ratio)

    def test_raw_confidence_mode_uses_c(self):
        # Near-uniform logits: c ~ 0.36 is low but w = c / c_hat ~ 0.71 is not.
        z = np.array([[0.0, 0.0, 0.1]])
        (rec,) = classify_sample(z, s=1, beta=0.99, gamma=0.6)
        assert rec.decision is OtdDecision.PASSTHROUGH  # w > gamma
        (rec_raw,) = classify_sample(z, s=1, beta=0.99, gamma=0.6, w_mode="raw")
        assert rec_raw.decision is OtdDecision.PAST_MISCLASSIFIED  # c <= gamma
        assert rec.ratio == pytest.approx(rec.confidence / rec.masked_confidence)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            classify_sample(np.zeros((1, 5)), s=3, beta=0.8, gamma=0.8)

    def test_misspelled_w_mode_rejected(self):
        z = np.random.default_rng(2).standard_normal((8, 4))
        table = classify_sample(z, s=2, beta=0.5, gamma=0.9)
        message = r"w_mode must be one of \('ratio', 'raw'\), got 'RAW'"
        with pytest.raises(ValueError, match=message):
            misclassified(table, 2, 2, 0.9, "RAW")
        with pytest.raises(ValueError, match="got 'bogus'"):
            classify_sample(z, 2, 0.5, 0.9, "bogus")


class TestThresholds:
    def test_validation(self):
        """ArcConfig and classify_sample, the two takers of beta and gamma,
        accept and reject the same values."""
        z = np.zeros((1, 2))
        for check in (lambda beta, gamma: ArcConfig(beta=beta, gamma=gamma),
                      lambda beta, gamma: classify_sample(z, 1, beta, gamma)):
            check(0.0, np.inf)  # diagnostic extremes allowed
            with pytest.raises(ValueError, match=r"beta must be in \[0, 1\], got 1.5"):
                check(1.5, 0.8)
            with pytest.raises(ValueError, match=r"gamma must be >= 0, got -0.1"):
                check(0.8, -0.1)
            with pytest.raises(ValueError, match=r"beta must be in \[0, 1\], got nan"):
                check(float("nan"), 0.8)


class TestBranchStructure:
    def test_decisions_partition_by_predicted_range(self):
        rng = np.random.default_rng(42)
        t, s = 4, 3
        for _ in range(200):
            z = 2.0 * rng.standard_normal((1, s * t))
            (rec,) = classify_sample(z, s, beta=0.5, gamma=0.9)
            if rec.decision is OtdDecision.PAST_CORRECT:
                assert rec.initial_class < s * (t - 1)
            if rec.decision is OtdDecision.PAST_MISCLASSIFIED:
                assert rec.initial_class >= s * (t - 1)

    def test_confidence_bounds(self):
        rng = np.random.default_rng(43)
        t, s = 3, 4
        for _ in range(100):
            z = 3.0 * rng.standard_normal((1, s * t))
            (rec,) = classify_sample(z, s, 0.8, 0.8)
            assert rec.confidence >= 1.0 / (s * t)
            assert rec.masked_confidence >= 1.0 / (s * (t - 1))
            assert rec.ratio > 0
