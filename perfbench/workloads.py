"""The benchmark's workloads and the checks on the bundles they write.

Each workload is one ``arcbench`` subcommand with fixed config overrides.
The benchmark's seed becomes ``run.seeds`` and, for a workload that reads
an EMB1 file, the ``SyntheticSpec`` seed of the file the benchmark writes
beforehand. See README.md in this directory for why each was chosen.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: dict = field(default_factory=dict)
    # SyntheticSpec fields of the EMB1 input; None = the CLI generates its data
    embeddings: dict | None = None

    def cli_args(self, seed: int, output_dir: str, emb_path: str | None) -> list[str]:
        args = [self.command, "--run.seeds", str(seed), "--run.output_dir", output_dir]
        for key, value in self.overrides.items():
            args += [f"--{key}", value]
        if self.embeddings is not None:
            args += ["--data.source", "embeddings", "--data.path", emb_path]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-default", "run"),
        Workload("probe-emb768", "probe", embeddings={"dim": 768}),
        Workload("ablate-raw-w", "ablate", {
            "ablate.losses": "both",
            "ablate.temperatures": "on,off",
            "ablate.w_modes": "raw",
            "ablate.betas": "0.5",
            "ablate.gammas": "0.9",
        }),
    )
}

BUNDLE_FILES = {
    "run": {"metadata.txt", "metrics.csv", "r_matrices.csv", "bias_histogram.csv",
            "task1_final_predictions.csv", "otd_validation.csv", "arc_records.csv"},
    "probe": {"metadata.txt", "probe.csv"},
    "ablate": {"metadata.txt", "ablation.csv"},
}


class CheckFailed(Exception):
    """A bundle that is missing, malformed or inconsistent."""


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def csv_digests(output_dir: str) -> dict[str, str]:
    """sha256 of every CSV in a bundle (metadata.txt names the output
    directory, so it differs between runs by design)."""
    out = {}
    for name in sorted(os.listdir(output_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(output_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _check_run(output_dir: str, seed: int) -> dict[str, float]:
    r_rows = _rows(os.path.join(output_dir, "r_matrices.csv"))
    metrics = {(row["seed"], row["pipeline"]): row
               for row in _rows(os.path.join(output_dir, "metrics.csv"))}
    found = {}
    for pipeline in ("arc", "baseline"):
        r = {(int(row["stage"]), int(row["task"])): float(row["accuracy"])
             for row in r_rows if row["pipeline"] == pipeline and row["seed"] == str(seed)}
        _require(bool(r), f"r_matrices.csv has no {pipeline} rows for seed {seed}")
        n = max(stage for stage, _ in r)
        _require(len(r) == n * (n + 1) // 2, f"{pipeline} R matrix is not lower-triangular")
        average = sum(r[n, i] for i in range(1, n + 1)) / n
        forgetting = sum(r[i, i] - r[n, i] for i in range(1, n)) / (n - 1)
        for row_seed in (str(seed), "mean"):
            row = metrics.get((row_seed, pipeline))
            _require(row is not None, f"metrics.csv lacks the ({row_seed}, {pipeline}) row")
            _require(_close(float(row["average_accuracy"]), average),
                     f"{pipeline} average_accuracy does not re-derive from r_matrices.csv")
            _require(_close(float(row["forgetting"]), forgetting),
                     f"{pipeline} forgetting does not re-derive from r_matrices.csv")
        found[f"{pipeline}_avg_acc"] = average
        found[f"{pipeline}_forgetting"] = forgetting
    return {
        "headline_acc": found["arc_avg_acc"],
        "arc_avg_acc": found["arc_avg_acc"],
        "baseline_avg_acc": found["baseline_avg_acc"],
        "arc_forgetting": found["arc_forgetting"],
    }


def _check_probe(output_dir: str, seed: int) -> dict[str, float]:
    rows = _rows(os.path.join(output_dir, "probe.csv"))
    _require(bool(rows) and all(row["seed"] == str(seed) for row in rows),
             f"probe.csv rows are not all for seed {seed}")
    n = max(int(row["stage"]) for row in rows)
    _require(len(rows) == n * (n - 1) // 2,
             f"probe.csv has {len(rows)} rows, expected N(N-1)/2 = {n * (n - 1) // 2}")
    independent = [float(row["independent_accuracy"]) for row in rows]
    shared = [float(row["shared_accuracy"]) for row in rows]
    return {
        "headline_acc": sum(shared) / len(shared),
        "probe_gap": sum(i - s for i, s in zip(independent, shared)) / len(rows),
    }


def _check_ablate(output_dir: str, seed: int, variants: int) -> dict[str, float]:
    rows = _rows(os.path.join(output_dir, "ablation.csv"))
    _require(len(rows) == variants and all(row["seed"] == str(seed) for row in rows),
             f"ablation.csv has {len(rows)} rows, expected one per variant ({variants})")
    accs = [float(row["average_accuracy"]) for row in rows]
    forgets = [float(row["forgetting"]) for row in rows]
    return {
        "headline_acc": sum(accs) / len(accs),
        "arc_avg_acc": sum(accs) / len(accs),
        "arc_forgetting": sum(forgets) / len(forgets),
    }


def _variant_count(workload: Workload) -> int:
    """Grid size of an ablate workload, which sets every ablate.* axis."""
    count = 1
    for axis in ("losses", "temperatures", "w_modes", "betas", "gammas"):
        count *= len(workload.overrides[f"ablate.{axis}"].split(","))
    return count


def check_bundle(workload: Workload, output_dir: str, seed: int) -> dict[str, float]:
    """Check one bundle; return the accuracy figures it reports.

    Raises CheckFailed when a file is missing or a summary does not
    re-derive from the raw rows.
    """
    expected = BUNDLE_FILES[workload.command]
    present = set(os.listdir(output_dir)) if os.path.isdir(output_dir) else set()
    _require(present == expected,
             f"bundle files {sorted(present)} differ from {sorted(expected)}")
    if workload.command == "run":
        return _check_run(output_dir, seed)
    if workload.command == "probe":
        return _check_probe(output_dir, seed)
    return _check_ablate(output_dir, seed, _variant_count(workload))
