"""Per-task softmax scores on a hand-built logits vector.

The score of task i looks only at the first s*i logits, temperature-flattened
by T**(t-i), and takes the max over task i's own class block. Earlier tasks
see a shorter softmax denominator, which offsets the head's preference for
recent classes when relabeling a suspected misclassification.
"""

import numpy as np

from arcbench import adaptive_correction, tss

s = 3  # classes per task; the scoring functions read t = 4 from the 12 logits' width

# a task-1 sample the head drags toward the newest task: its true class (0)
# leads inside task 1's block, but task 4's fresh rows shout louder overall
z = np.array([1.1, 0.2, -0.3,   # task 1
              0.4, -0.2, 0.1,   # task 2
              0.0, 0.3, -0.1,   # task 3
              1.6, 1.2, 0.0])   # task 4 (current)
print("raw argmax picks class", int(np.argmax(z)), "(a current-task class)")
batch = z[None]  # both functions take a batch of logits rows; this one has one row

for temperature in (1.0, 2.0, 4.0):
    (scores,) = tss(batch, s, temperature)
    rendered = " ".join(f"S{i + 1}={v:.3f}" for i, v in enumerate(scores))
    print(f"T={temperature}: {rendered} -> task {int(np.argmax(scores)) + 1}")

(task,), (cls,), _ = adaptive_correction(batch, s, temperature=2.0)
print(f"\ncorrection at T=2 reassigns the sample to task {task}, class {cls}")
print("(the class is the raw-logit argmax inside the chosen task's block)")
