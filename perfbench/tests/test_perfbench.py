"""Tests of the benchmark's own arithmetic, checks and metric names, plus a
smoke run of every workload at a tiny size."""

import csv
import json
import re
from dataclasses import replace

import pytest

from arcbench.cli import main as arcbench_main
from perfbench import run
from perfbench.spans import Tracer, load, percentile, self_times
from perfbench.workloads import WORKLOADS, CheckFailed, check_bundle

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = {
    "data.num_tasks": "3", "data.step": "2", "data.dim": "8",
    "data.train_per_class": "10", "data.test_per_class": "8",
    "train.epochs": "2", "arc.batch_size": "8",
}
TINY_EMB = {"num_tasks": 3, "step": 2, "dim": 8, "train_per_class": 10, "test_per_class": 8}


def tiny(workload):
    embeddings = TINY_EMB if workload.embeddings is not None else None
    return replace(workload, overrides={**workload.overrides, **TINY}, embeddings=embeddings)


def span(start, end, parent):
    return ("s", start, end, parent)


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [span(0, 100, -1), span(10, 40, 0), span(15, 25, 1), span(50, 70, 0)]
        assert self_times(spans) == [50, 20, 10, 20]

    def test_self_times_partition_the_root(self):
        spans = [span(0, 1000, -1), span(5, 500, 0), span(6, 7, 1), span(8, 300, 1),
                 span(9, 10, 3), span(600, 999, 0)]
        assert sum(self_times(spans)) == 1000

    def test_overlapping_and_overhanging_children_counted_once(self):
        spans = [span(0, 100, -1), span(10, 40, 0), span(30, 60, 0), span(90, 120, 0)]
        assert self_times(spans)[0] == 100 - 50 - 10

    def test_tracer_round_trip(self, tmp_path):
        tracer = Tracer("run-1")
        outer = tracer.begin("cli.main")
        inner = tracer.begin("core.forward")
        tracer.end(inner)
        second = tracer.begin("core.forward")
        tracer.end(second)
        tracer.end(outer)
        path = tmp_path / "spans.bin"
        tracer.dump(str(path), counts={"x": 1})
        header, spans = load(str(path))
        assert header["run_id"] == "run-1" and header["counts"] == {"x": 1}
        assert [(name, parent) for name, _, _, parent in spans] == [
            ("cli.main", -1), ("core.forward", 0), ("core.forward", 0)]
        assert all(start <= end for _, start, end, _ in spans)
        assert sum(self_times(spans)) == spans[0][2] - spans[0][1]


class TestPercentile:
    @pytest.mark.parametrize("n, p, expected", [
        (10, 50, 5), (10, 90, 9), (10, 99, 10), (10, 100, 10),
        (100, 99, 99), (100, 50, 50), (1000, 99, 990), (1, 99, 1), (2, 50, 1),
    ])
    def test_nearest_rank(self, n, p, expected):
        values = list(range(n, 0, -1))  # order must not matter
        assert percentile(values, p) == expected

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)


class TestBenchmarkSpec:
    def test_names_units_and_workloads(self):
        spec = run.spec()
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics]
        assert len(names) == len(set(names))
        for m in metrics:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert UNIT.fullmatch(m["unit"]), m["unit"]
            assert m["better"] in ("higher", "lower")
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        assert "setup_s" in [m["name"] for m in spec["end_to_end"]]
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert set(run.FIGURE_UNITS).isdisjoint(names)


class TestBundleChecks:
    def test_run_bundle_rederives_and_tampering_is_caught(self, tmp_path):
        workload = tiny(WORKLOADS["run-default"])
        out = tmp_path / "bundle"
        assert arcbench_main(workload.cli_args(3, str(out), None)) == 0
        figures = check_bundle(workload, str(out), 3)
        assert figures["headline_acc"] == figures["arc_avg_acc"] > 0

        path = out / "metrics.csv"
        rows = list(csv.reader(path.open()))
        for row in rows:
            if row[:2] == ["mean", "arc"]:
                row[2] = str(float(row[2]) + 1e-6)
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        with pytest.raises(CheckFailed, match="average_accuracy"):
            check_bundle(workload, str(out), 3)

    def test_missing_file_is_caught(self, tmp_path):
        workload = tiny(WORKLOADS["ablate-raw-w"])
        out = tmp_path / "bundle"
        assert arcbench_main(workload.cli_args(0, str(out), None)) == 0
        assert len(check_bundle(workload, str(out), 0)) == 3
        (out / "ablation.csv").unlink()
        with pytest.raises(CheckFailed, match="bundle files"):
            check_bundle(workload, str(out), 0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_every_workload(name, tmp_path, capsys):
    spec = run.spec()
    workload = tiny(WORKLOADS[name])
    untraced = run.run_workload(workload, 1, 0.0, False, tmp_path / "work")
    result = untraced["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUP_REPEATS + 1
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(untraced)

    traced = run.run_workload(workload, 1, 0.0, True, tmp_path / "work")["result"]
    assert traced["correct"] and traced["attempted"] == 2
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert layers["cli.rows"] > 0 and layers["core.forward.calls"] > 0
    decisions = (layers["otd.past_correct"] + layers["otd.past_misclassified"]
                 + layers["otd.passthrough"])
    assert decisions == layers["arc.samples"]
    if name == "probe-emb768":
        assert layers["otd.calls"] == 0 and layers["arc.samples"] == 0
        assert layers["data.records"] > 0 and layers["data.bytes_read"] > 0
    else:
        assert layers["otd.calls"] > 0 and layers["arc.batches"] > 0
    assert not (tmp_path / "work").exists()
