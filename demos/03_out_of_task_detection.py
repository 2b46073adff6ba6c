"""Sorting test samples into detection branches from confidence alone.

Uses the trained head's own outputs: max softmax confidence c over all
classes, the same over past-task logits only (c_hat), and their ratio w.
Shows a few individual samples, then how the confidence threshold trades
flag volume against flag purity.
"""

import numpy as np

from arcbench import (
    OtdDecision,
    SyntheticSpec,
    TrainConfig,
    classify_sample,
    forward,
    generate_synthetic,
    train_sequence,
)

spec = SyntheticSpec(num_tasks=4, step=5, dim=48, train_per_class=60,
                     test_per_class=50, seed=2)
stream = generate_synthetic(spec)
head = train_sequence(stream, TrainConfig(), seed=2)[-1]
t, s = spec.num_tasks, spec.step  # the logits' width s*t names the stage t

x = np.vstack([d.features for d in stream.test])
labels = np.concatenate([d.labels for d in stream.test])
tasks = np.concatenate([np.full(len(d.labels), task)
                        for task, d in enumerate(stream.test, start=1)])
z = forward(head, x)

print("a few samples through the detector (beta=0.8, gamma=0.8):")
picked = [0, 40, 240, 700, 950]
for i, rec in zip(picked, classify_sample(z[picked], s, 0.8, 0.8)):  # one record per sample
    w = "-" if np.isnan(rec.ratio) else f"{rec.ratio:.2f}"
    print(f"  true task {tasks[i]}  predicted class {rec.initial_class:3d}  "
          f"c={rec.confidence:.2f}  w={w}  -> {rec.decision.value}")

print("\nbeta sweep: how many samples get the retention flag, and how pure they are")
print("beta   flagged  truly past & correct  precision")
for beta in (0.0, 0.5, 0.7, 0.8, 0.9):
    records = classify_sample(z, s, beta, 0.8)  # the whole batch at once
    is_flagged = records.decision == OtdDecision.PAST_CORRECT
    flagged = int(is_flagged.sum())
    correct = int(np.sum(is_flagged & (tasks < t) & (records.initial_class == labels)))
    precision = correct / flagged if flagged else float("nan")
    print(f"{beta:4.1f} {flagged:9d} {correct:21d}  {precision:.3f}")
