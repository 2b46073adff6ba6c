"""Where does a sequentially trained linear head send old samples?

Trains one shared head over a 6-task stream of frozen Gaussian features,
then looks at what happened to the first task: accuracy right after learning
it, accuracy at the end, and the task buckets its wrong predictions land in.
"""

import numpy as np

from arcbench import (
    SyntheticSpec,
    TrainConfig,
    bias_histogram,
    forward,
    generate_synthetic,
    train_sequence,
)

spec = SyntheticSpec(num_tasks=6, step=5, dim=48, train_per_class=60,
                     test_per_class=60, seed=0)
stream = generate_synthetic(spec)
train_cfg = TrainConfig()  # benchmark defaults: lr 5.0, mild weight decay

heads = train_sequence(stream, train_cfg, seed=0)
first = stream.test[0]

print("accuracy on task 1's test set after each stage:")
for stage, head in enumerate(heads, start=1):
    acc = np.mean(forward(head, first.features).argmax(axis=1) == first.labels)
    print(f"  stage {stage}: {acc:.3f}")

predicted = forward(heads[-1], first.features).argmax(axis=1)
counts = bias_histogram(predicted, first.labels, stream.layout)
print(f"\n{counts.sum()} wrong predictions, bucketed by the task owning the "
      "predicted class:")
for task, count in enumerate(counts, start=1):
    bar = "#" * int(round(40 * count / max(counts.sum(), 1)))
    print(f"  task {task}: {count:4d} {bar}")
print("\nThe pile-up in the newest tasks is the classifier bias the test-time "
      "pipeline exists to undo.")
