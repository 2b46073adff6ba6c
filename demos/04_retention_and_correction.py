"""The full test-time pipeline against its own baseline.

One benchmark run produces paired accuracy matrices: plain argmax and the
online pipeline (single-gradient-step retention on confidently recognized
past samples, task-score correction of suspected misclassifications). The
gap in average accuracy and forgetting is the pipeline's contribution.

This one runs the full default benchmark (10 tasks x 10 classes), then
the component breakdown as one ablation grid over the same stream: two
training runs in all.
"""

from arcbench import (ArcConfig, SyntheticSpec, TrainConfig, ablation_grid, average_accuracy,
                      forgetting, generate_synthetic, run_stream)

spec = SyntheticSpec(seed=3)
stream = generate_synthetic(spec)

result = run_stream(stream, TrainConfig(), ArcConfig(), seed=3)


def show(name, r):
    print(f"{name} accuracy matrix (rows: after stage t, cols: task):")
    for t in range(1, r.num_tasks + 1):
        cells = " ".join(f"{v:.2f}" for v in r.row(t))
        print(f"  t={t}: {cells}")


show("baseline", result.r_without_arc)
print()
show("with test-time pipeline", result.r_with_arc)

base_acc, arc_acc = average_accuracy(result.r_without_arc), average_accuracy(result.r_with_arc)
base_forget, arc_forget = forgetting(result.r_without_arc), forgetting(result.r_with_arc)
print(f"\naverage accuracy: {base_acc:.4f} -> {arc_acc:.4f} ({arc_acc - base_acc:+.4f})")
print(f"forgetting:       {base_forget:.4f} -> {arc_forget:.4f} "
      f"({arc_forget - base_forget:+.4f})")
updates = [trace.retention_updates for trace in result.arc_traces]
print(f"retention updates per stage: {updates}")

variants = {
    "retention only ": ArcConfig(correction=False),
    "correction only": ArcConfig(retention=False),
    "last stage only": ArcConfig(arc_last=True),
}
print("\ncomponent breakdown (average accuracy):")
matrices = ablation_grid(stream, TrainConfig(), list(variants.values()), seed=3)
for name, r in zip(variants, matrices):
    acc = average_accuracy(r)
    print(f"  {name}: {acc:.4f} ({acc - base_acc:+.4f})")
