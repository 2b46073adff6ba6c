import csv
import hashlib
import itertools
import os
import platform
import re
import struct
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from arcbench import cli
from arcbench.arc import RECORD_DTYPE, ArcConfig
from arcbench.cli import (
    RECORD_COLUMNS,
    SCHEMA,
    Chunks,
    ConfigError,
    RunConfig,
    _effective_config,
    _record_text,
    blas_core,
    blas_name,
    main,
    read_config_file,
    render_csv,
    write_bundle,
)
from arcbench.core import TrainConfig
from arcbench.data import SyntheticSpec, generate_synthetic, write_embeddings
from arcbench.harness import StageTrace, run_stream, trains_in_child
from arcbench.otd import OtdDecision

from stage_schedules import late_claims, log_stages

HELP_TEXT = os.path.join(os.path.dirname(__file__), "cli_help.txt")
TINY = [
    "--data.num_tasks", "3", "--data.step", "2", "--data.dim", "8",
    "--data.train_per_class", "10", "--data.test_per_class", "8",
    "--train.epochs", "6", "--train.lr", "1.0", "--train.batch_size", "16",
    "--train.weight_decay", "0.001", "--arc.batch_size", "8",
]


def run_cli(args, capsys=None):
    code = main(args)
    return code


@pytest.fixture
def no_training(monkeypatch):
    """Fail the command if it reaches training."""
    def train(*args, **kwargs):
        raise AssertionError("trained before run.output_dir was checked")

    monkeypatch.setattr("arcbench.harness.map_stages", train)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCmdRun:
    def test_single_seed_row_counts(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "0", "--run.output_dir", str(out)]) == 0
        rows = read_rows(out / "metrics.csv")
        assert rows[0] == ["seed", "pipeline", "average_accuracy", "forgetting"]
        per_seed = [r for r in rows[1:] if r[0] == "0"]
        assert sorted(r[1] for r in per_seed) == ["arc", "baseline"]
        assert {r[0] for r in rows[1:]} == {"0", "mean", "std"}

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("arc.betaa = 0.5\n")
        assert run_cli(["run", "--config", str(cfg)]) == 1
        assert "arc.betaa" in capsys.readouterr().err

    def test_mean_row_is_arithmetic_mean(self, tmp_path):
        out = tmp_path / "bundle"
        seeds = "0,1,2,3,4"
        assert run_cli(["run", *TINY, "--run.seeds", seeds, "--run.output_dir", str(out)]) == 0
        rows = read_rows(out / "metrics.csv")[1:]
        for pipeline in ("arc", "baseline"):
            per_seed = [float(r[2]) for r in rows if r[1] == pipeline and r[0].isdigit()]
            assert len(per_seed) == 5
            mean_row = [r for r in rows if r[1] == pipeline and r[0] == "mean"][0]
            assert abs(float(mean_row[2]) - np.mean(per_seed)) <= 1e-12

    def test_metrics_rederivable_from_r_matrices(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "1", "--run.output_dir", str(out)]) == 0
        r_rows = read_rows(out / "r_matrices.csv")[1:]
        metrics = {(r[0], r[1]): (float(r[2]), float(r[3]))
                   for r in read_rows(out / "metrics.csv")[1:] if r[0].isdigit()}
        for pipeline in ("arc", "baseline"):
            entries = {(int(r[2]), int(r[3])): float(r[4])
                       for r in r_rows if r[0] == "1" and r[1] == pipeline}
            n = max(t for t, _ in entries)
            avg = sum(entries[(n, i)] for i in range(1, n + 1)) / n
            forget = sum(entries[(i, i)] - entries[(n, i)] for i in range(1, n)) / (n - 1)
            got_avg, got_forget = metrics[("1", pipeline)]
            assert abs(avg - got_avg) <= 1e-12
            assert abs(forget - got_forget) <= 1e-12

    def test_bias_histogram_rederivable(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "0", "--run.output_dir", str(out)]) == 0
        preds = read_rows(out / "task1_final_predictions.csv")[1:]
        counts = {}
        for _, _, label, pred in preds:
            if label != pred:
                task = int(pred) // 2 + 1
                counts[task] = counts.get(task, 0) + 1
        hist = {int(r[1]): int(r[2]) for r in read_rows(out / "bias_histogram.csv")[1:]}
        assert sum(hist.values()) == sum(counts.values())
        for task, count in counts.items():
            assert hist[task] == count

    def test_otd_precision_rederivable_from_records(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "0", "--run.output_dir", str(out)]) == 0
        records = read_rows(out / "arc_records.csv")[1:]
        flagged = [r for r in records if r[7] == "past_correct"]
        true = [r for r in flagged if int(r[3]) < int(r[1]) and r[5] == r[4]]
        otd = read_rows(out / "otd_validation.csv")[1:][0]
        if flagged:
            assert float(otd[2]) == len(true) / len(flagged)
        assert int(otd[6]) == len(flagged)

    def test_undefined_stage1_cells_are_empty(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "0", "--run.output_dir", str(out)]) == 0
        header, *records = read_rows(out / "arc_records.csv")
        masked, ratio = header.index("masked_confidence"), header.index("ratio")
        stages = {r[1] for r in records}
        assert stages == {"1", "2", "3"}
        for r in records:
            if r[1] == "1":
                assert r[masked] == "" and r[ratio] == ""
            else:
                assert float(r[masked]) > 0 and float(r[ratio]) > 0

    @pytest.mark.parametrize("command", ["run", "ablate", "validate-otd"])
    def test_deterministic_bundle_bytes(self, tmp_path, command):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = [command, *TINY, "--run.seeds", "2"]
        assert run_cli([*args, "--run.output_dir", str(out1)]) == 0
        assert run_cli([*args, "--run.output_dir", str(out2)]) == 0
        names = [n for n in os.listdir(out1) if n.endswith(".csv")]
        assert names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_existing_nonempty_output_rejected(self, tmp_path, capsys):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("do not clobber")
        assert run_cli(["run", *TINY, "--run.output_dir", str(out)]) == 1
        assert (out / "keep.txt").read_text() == "do not clobber"

    @pytest.mark.parametrize("command", ["run", "probe", "ablate", "validate-otd"])
    @pytest.mark.parametrize("occupant, message", [
        ("dir", "run.output_dir already exists and is not empty"),
        ("file", "run.output_dir is a file"),
        ("below", "run.output_dir lies below a file"),
        ("dangling", "run.output_dir is a dangling link"),
        ("below_dangling", "run.output_dir lies below a dangling link"),
    ])
    def test_occupied_output_named_before_training(self, tmp_path, capsys, no_training,
                                                   command, occupant, message):
        out = tmp_path / "occupied"
        if occupant == "dir":
            out.mkdir()
            (out / "keep.txt").write_text("do not clobber")
        elif occupant.endswith("dangling"):
            out.symlink_to(tmp_path / "missing")
        else:
            out.write_text("do not clobber")
        # a path below the occupant: the message names the occupant
        target = out / "sub" / "bundle" if occupant.startswith("below") else out
        assert run_cli([command, *TINY, "--run.output_dir", str(target)]) == 1
        assert f"error: {message}: {out}\n" in capsys.readouterr().err
        if occupant.endswith("dangling"):  # the link stays and its target is never made
            assert out.is_symlink() and os.listdir(tmp_path) == ["occupied"]
        else:
            assert (out / "keep.txt" if occupant == "dir" else out).read_text() == "do not clobber"

    def test_link_to_empty_dir_receives_bundle(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        link = tmp_path / "link"
        link.symlink_to(target)
        assert run_cli(["probe", *TINY, "--run.output_dir", str(link)]) == 0
        assert link.is_symlink() and os.path.samefile(link, target)
        assert sorted(os.listdir(target)) == ["metadata.txt", "probe.csv"]
        assert sorted(os.listdir(tmp_path)) == ["link", "target"]

    def test_env_output_below_a_file_named_before_training(self, tmp_path, capsys, monkeypatch,
                                                          no_training):
        occupant = tmp_path / "occupied"
        occupant.write_text("do not clobber")
        monkeypatch.setenv("ARCBENCH_OUTPUT_DIR", str(occupant / "bundle"))
        assert run_cli(["run", *TINY]) == 1
        assert f"error: run.output_dir lies below a file: {occupant}\n" in capsys.readouterr().err
        assert occupant.read_text() == "do not clobber"

    def test_empty_output_dir_named_before_training(self, tmp_path, capsys, monkeypatch,
                                                    no_training):
        # "" names the working directory, as the bundle writer resolves it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.txt").write_text("do not clobber")
        assert run_cli(["probe", *TINY, "--run.output_dir", ""]) == 1
        message = f"error: run.output_dir already exists and is not empty: {os.getcwd()}\n"
        assert message in capsys.readouterr().err
        assert (tmp_path / "keep.txt").read_text() == "do not clobber"

    def test_output_filled_mid_run_not_clobbered(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "late"
        probe = cli.linear_probe_experiment

        def fill_then_probe(*args, **kwargs):
            out.mkdir()
            (out / "keep.txt").write_text("do not clobber")
            return probe(*args, **kwargs)

        monkeypatch.setattr(cli, "linear_probe_experiment", fill_then_probe)
        assert run_cli(["probe", *TINY, "--run.output_dir", str(out)]) == 1
        assert "run.output_dir already exists and is not empty" in capsys.readouterr().err
        assert os.listdir(out) == ["keep.txt"]

    def test_failure_leaves_no_bundle(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = run_cli(["run", "--data.source", "embeddings",
                        "--data.path", str(tmp_path / "missing.emb1"),
                        "--run.output_dir", str(out)])
        assert code == 1
        assert not out.exists()
        assert "data.path" in capsys.readouterr().err

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "from-env"
        monkeypatch.setenv("ARCBENCH_OUTPUT_DIR", str(out))
        assert run_cli(["run", *TINY, "--run.seeds", "0"]) == 0
        assert (out / "metrics.csv").exists()

    def test_embeddings_source(self, tmp_path):
        spec = SyntheticSpec(num_tasks=2, step=2, dim=8, train_per_class=10,
                             test_per_class=8, seed=4)
        path = tmp_path / "toy.emb1"
        write_embeddings(generate_synthetic(spec), str(path))
        out = tmp_path / "bundle"
        code = run_cli(["run", "--data.source", "embeddings", "--data.path", str(path),
                        "--train.epochs", "4", "--train.lr", "1.0",
                        "--arc.batch_size", "8", "--run.output_dir", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        metadata = (out / "metadata.txt").read_text()
        assert f"data.path sha256 = {digest}\n" in metadata
        # the file's layout, not the generator keys' defaults (10 tasks, step 10, dim 64)
        assert ("data.path layout = num_tasks 2, step 2, dim 8, train records 40, "
                "test records 32\n") in metadata

    @pytest.mark.parametrize("command", ["run", "probe", "validate-otd"])
    def test_embeddings_bundle_equals_generated_bundle(self, tmp_path, command):
        """The same stream through the EMB1 loader and through the generator:
        every CSV byte for byte."""
        data = {"num_tasks": 2, "step": 2, "dim": 8, "train_per_class": 10,
                "test_per_class": 8}
        path = tmp_path / "toy.emb1"
        write_embeddings(generate_synthetic(SyntheticSpec(**data, seed=4)), str(path))
        common = [command, "--run.seeds", "4", "--train.epochs", "4", "--train.lr", "1.0",
                  "--arc.batch_size", "8"]
        sources = {
            "embeddings": ["--data.source", "embeddings", "--data.path", str(path)],
            "synthetic": ["--data.source", "synthetic",
                          *(arg for key, value in data.items()
                            for arg in (f"--data.{key}", str(value)))],
        }
        csvs = {}
        for source, flags in sources.items():
            out = tmp_path / source
            assert run_cli([*common, *flags, "--run.output_dir", str(out)]) == 0
            csvs[source] = {name: (out / name).read_bytes()
                            for name in sorted(os.listdir(out)) if name.endswith(".csv")}
        assert csvs["embeddings"]
        assert csvs["embeddings"] == csvs["synthetic"]

    def test_metadata_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "0", "--run.output_dir", str(out)]) == 0
        lines = (out / "metadata.txt").read_text().splitlines()
        assert f"numpy version = {np.__version__}" in lines
        assert f"python version = {platform.python_version()}" in lines
        assert f"platform = {platform.platform()}" in lines
        # the golden manifest's key reads the same two functions
        assert f"blas = {blas_name()}, core {blas_core()}" in lines
        assert ("blas threads = OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=unset, "
                "MKL_NUM_THREADS=") in lines
        assert not any("sha256" in line for line in lines)  # synthetic data has no input file

    def test_embeddings_with_empty_test_split_named(self, tmp_path, capsys):
        stream = generate_synthetic(SyntheticSpec(num_tasks=2, step=2, dim=8, train_per_class=10,
                                                  test_per_class=8, seed=4))
        path = tmp_path / "no-test.emb1"
        write_embeddings(stream, str(path))
        # the file less task 2's test split: its 16 records come last, and the header counts them
        blob = path.read_bytes()
        count = struct.unpack_from("<Q", blob, 18)[0] - 16
        path.write_bytes(blob[:18] + struct.pack("<Q", count) + blob[26:26 + count * (7 + 4 * 8)])
        code = run_cli(["run", "--data.source", "embeddings", "--data.path", str(path),
                        "--run.output_dir", str(tmp_path / "bundle")])
        assert code == 1
        assert "task 2 has an empty test split" in capsys.readouterr().err


class TestWriteBundle:
    class Broken(Exception):
        pass

    def test_chunk_error_mid_write_leaves_nothing(self, tmp_path):
        def chunks():
            yield "a,b\n"
            raise self.Broken("rendering failed")

        out = tmp_path / "bundle"
        files = {"metadata.txt": "done\n", "records.csv": Chunks(chunks)}
        with pytest.raises(self.Broken, match="rendering failed"):
            write_bundle(str(out), files)
        assert os.listdir(tmp_path) == []  # no bundle and no .bundle-* directory

    def test_record_error_mid_run_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        record_text, calls = cli._record_text, []

        def fail_at_stage_2(seed, trace, beta=None):
            calls.append(trace.stage)
            if trace.stage == 2:
                raise ValueError("stage 2 records failed")
            return record_text(seed, trace, beta)

        monkeypatch.setattr(cli, "_record_text", fail_at_stage_2)
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "0", "--run.output_dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: stage 2 records failed\n"
        assert calls == [1, 2]  # one trace's rows at a time, rendered as they are written
        assert os.listdir(tmp_path) == []

    def test_write_holds_less_than_the_records_it_writes(self, tmp_path, monkeypatch):
        """Peak traced memory while the bundle is written, above what was
        live before: one stage's rows at a time, never the whole file."""
        write, grown = cli.write_bundle, []

        def measured(output_dir, files):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write(output_dir, files)
            grown.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(cli, "write_bundle", measured)
        out = tmp_path / "bundle"
        tracemalloc.start()
        try:
            code = run_cli(["run", *TINY, "--data.num_tasks", "5", "--run.seeds", "0,1,2,3,4,5",
                            "--run.output_dir", str(out)])
        finally:
            tracemalloc.stop()
        assert code == 0
        assert grown[0] < (out / "arc_records.csv").stat().st_size


class TestCmdProbe:
    def test_single_task_header_only(self, tmp_path):
        out = tmp_path / "bundle"
        code = run_cli(["probe", "--data.num_tasks", "1", "--data.step", "2",
                        "--data.dim", "8", "--data.train_per_class", "10",
                        "--data.test_per_class", "8", "--train.epochs", "4",
                        "--train.lr", "1.0", "--run.output_dir", str(out)])
        assert code == 0
        assert read_rows(out / "probe.csv") == [
            ["seed", "stage", "task", "independent_accuracy", "shared_accuracy"]
        ]

    def test_probe_beats_shared_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["probe", *TINY, "--run.seeds", "0"]
        assert run_cli([*args, "--run.output_dir", str(out1)]) == 0
        assert run_cli([*args, "--run.output_dir", str(out2)]) == 0
        assert (out1 / "probe.csv").read_bytes() == (out2 / "probe.csv").read_bytes()
        rows = read_rows(out1 / "probe.csv")[1:]
        final_task1 = [r for r in rows if r[1] == "3" and r[2] == "1"]
        assert len(final_task1) == 1
        assert float(final_task1[0][3]) >= float(final_task1[0][4])


class TestCmdAblate:
    def test_beta_sweep_row_count(self, tmp_path):
        out = tmp_path / "bundle"
        code = run_cli(["ablate", *TINY, "--ablate.losses", "both",
                        "--ablate.temperatures", "on", "--ablate.w_modes", "ratio",
                        "--ablate.betas", "0.6,0.7,0.8,0.9", "--ablate.gammas", "0.8",
                        "--run.output_dir", str(out)])
        assert code == 0
        rows = read_rows(out / "ablation.csv")[1:]
        assert len(rows) == 4
        assert sorted(float(r[4]) for r in rows) == [0.6, 0.7, 0.8, 0.9]

    def test_identity_variant_matches_run(self, tmp_path):
        run_out, ablate_out = tmp_path / "run", tmp_path / "ablate"
        assert run_cli(["run", *TINY, "--run.output_dir", str(run_out)]) == 0
        code = run_cli(["ablate", *TINY, "--ablate.losses", "both",
                        "--ablate.temperatures", "on", "--ablate.w_modes", "ratio",
                        "--ablate.betas", "0.8", "--ablate.gammas", "0.8",
                        "--run.output_dir", str(ablate_out)])
        assert code == 0
        arc_row = [r for r in read_rows(run_out / "metrics.csv")[1:]
                   if r[0] == "0" and r[1] == "arc"][0]
        variant_row = read_rows(ablate_out / "ablation.csv")[1]
        assert variant_row[6] == arc_row[2]  # identical 17-digit text
        assert variant_row[7] == arc_row[3]

    def test_empty_variant_set(self, tmp_path, capsys):
        """An empty axis would leave a report with a header and no rows."""
        path = tmp_path / "empty.cfg"
        path.write_text("ablate.losses =\n")
        out = tmp_path / "bundle"
        assert run_cli(["ablate", *TINY, "--config", str(path), "--run.output_dir", str(out)]) == 1
        assert capsys.readouterr().err == ("error: bad value for 'ablate.losses' (from config "
                                           "file): must list at least one value\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "probe", "ablate", "validate-otd"])
    @pytest.mark.parametrize("key, value, message", [
        ("ablate.losses", "ce,cheese",
         "retention_loss must be one of ('both', 'ce', 'em'), got 'cheese'"),
        ("ablate.temperatures", "on,lukewarm", "temperature must be on or off, got 'lukewarm'"),
        ("ablate.w_modes", "raw,median", "w_mode must be one of ('ratio', 'raw'), got 'median'"),
        ("ablate.betas", "0.5,1.5", "beta must be in [0, 1], got 1.5"),
        ("ablate.gammas", "0.5,-1", "gamma must be >= 0, got -1.0"),
    ], ids=["losses", "temperatures", "w_modes", "betas", "gammas"])
    def test_bad_axis_value_named_before_training(self, tmp_path, capsys, monkeypatch,
                                                  command, key, value, message):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr("arcbench.harness.map_stages", no_training)
        out = tmp_path / "bundle"
        assert run_cli([command, *TINY, f"--{key}", value, "--run.output_dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key}: {message}\n"
        assert not out.exists()

    def test_rows_in_variant_key_order(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli(["ablate", *TINY, "--ablate.losses", "em,both",
                        "--ablate.temperatures", "on,off", "--ablate.w_modes", "raw,ratio",
                        "--ablate.betas", "1,0.05", "--ablate.gammas", "10,2",
                        "--run.output_dir", str(out)]) == 0
        rows = read_rows(out / "ablation.csv")[1:]
        assert {r[0] for r in rows} == {"0"}
        cells = [(r[1], r[2], r[3], float(r[4]), float(r[5])) for r in rows]
        # sorted as text, so gamma 10 comes before gamma 2
        assert cells == list(itertools.product(("both", "em"), ("off", "on"), ("ratio", "raw"),
                                               (0.05, 1.0), (10.0, 2.0)))
        keys = [f"loss={loss},temp={temp},w={w},beta={beta:g},gamma={gamma:g}"
                for loss, temp, w, beta, gamma in cells]
        assert keys == sorted(keys)


class TestSingleTask:
    @pytest.mark.parametrize("command, name", [("run", "metrics.csv"), ("ablate", "ablation.csv")])
    def test_forgetting_cells_empty(self, tmp_path, command, name):
        """Forgetting is undefined for one task: every forgetting cell is empty,
        the mean and std rows' too, and every accuracy cell is a number."""
        out = tmp_path / "bundle"
        assert run_cli([command, *TINY, "--data.num_tasks", "1", "--run.seeds", "0,1",
                        "--ablate.betas", "0.6,0.9", "--ablate.gammas", "0.8",
                        "--run.output_dir", str(out)]) == 0
        header, *rows = read_rows(out / name)
        acc, forget = header.index("average_accuracy"), header.index("forgetting")
        if command == "run":
            assert [row[0] for row in rows] == ["0", "0", "1", "1", "mean", "std", "mean", "std"]
        else:
            assert len(rows) == 2 * 3 * 2 * 2 * 2  # seeds x losses x temps x w-modes x betas
        for row in rows:
            assert row[forget] == ""
            assert 0.0 <= float(row[acc]) <= 1.0


class TestCmdValidateOtd:
    def test_rows_and_rederivation(self, tmp_path):
        out = tmp_path / "bundle"
        code = run_cli(["validate-otd", *TINY, "--otd.betas", "0.0,0.8",
                        "--run.output_dir", str(out)])
        assert code == 0
        otd_rows = read_rows(out / "otd_validation.csv")[1:]
        assert [r[1] for r in otd_rows] == ["0", "0.80000000000000004"]
        for row in otd_rows:
            for cell in (row[2], row[4]):
                if cell != "":
                    assert 0.0 <= float(cell) <= 1.0
        records = read_rows(out / "arc_records.csv")[1:]
        for row in otd_rows:
            beta = row[1]
            flagged = [r for r in records if r[1] == beta and r[8] == "past_correct"]
            true = [r for r in flagged if int(r[4]) < int(r[2]) and r[6] == r[5]]
            if flagged:
                assert float(row[2]) == len(true) / len(flagged)
            else:
                assert row[2] == ""

    def test_each_beta_matches_run(self, tmp_path):
        votd = tmp_path / "votd"
        assert run_cli(["validate-otd", *TINY, "--otd.betas", "0.0,0.8",
                        "--run.output_dir", str(votd)]) == 0
        otd_rows = read_rows(votd / "otd_validation.csv")
        records = read_rows(votd / "arc_records.csv")
        for beta in ("0.0", "0.8"):
            out = tmp_path / f"run-{beta}"
            assert run_cli(["run", *TINY, "--arc.beta", beta,
                            "--run.output_dir", str(out)]) == 0
            run_otd = read_rows(out / "otd_validation.csv")
            assert otd_rows[0] == run_otd[0]
            assert [r for r in otd_rows[1:] if float(r[1]) == float(beta)] == run_otd[1:]
            without_beta = [r[:1] + r[2:] for r in records[1:] if float(r[1]) == float(beta)]
            run_records = read_rows(out / "arc_records.csv")
            assert records[0][:1] + records[0][2:] == run_records[0]
            assert without_beta == run_records[1:]
            assert any(r[8] == "1" for r in without_beta)  # retention moved the head

    def test_out_of_range_beta_named_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr("arcbench.harness.map_stages", no_training)
        out = tmp_path / "bundle"
        code = run_cli(["validate-otd", *TINY, "--otd.betas", "0.5,1.5",
                        "--run.output_dir", str(out)])
        assert code == 1
        assert "otd.betas" in capsys.readouterr().err
        assert not out.exists()

    def test_no_betas_rejected_without_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with no beta to evaluate")

        monkeypatch.setattr("arcbench.harness.map_stages", no_training)
        out = tmp_path / "bundle"
        assert run_cli(["validate-otd", *TINY, "--otd.betas", "",
                        "--run.output_dir", str(out)]) == 1
        assert capsys.readouterr().err == ("error: bad value for 'otd.betas' (from flag): "
                                           "must list at least one value\n")
        assert not out.exists()


class TestTrainingErrors:
    @pytest.mark.parametrize("command", ["run", "probe", "ablate", "validate-otd"])
    def test_training_error_reported_without_bundle(self, tmp_path, capsys, command):
        out = tmp_path / "bundle"
        code = run_cli([command, *TINY, "--train.lr", "1e308", "--run.output_dir", str(out)])
        assert code == 1
        assert "error: training overflows at learning rate 1e+308" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["train.lr", "arc.lr"])
    def test_infinite_learning_rate_named_before_training(self, tmp_path, capsys, monkeypatch,
                                                          key):
        def never(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr("arcbench.harness.fit_task", never)
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, f"--{key}", "inf", "--run.output_dir", str(out)]) == 1
        assert f"error: {key} must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_weight_decay_named_before_training(self, tmp_path, capsys, monkeypatch,
                                                           value):
        def never(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr("arcbench.harness.fit_task", never)
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--train.weight_decay", value,
                        "--run.output_dir", str(out)]) == 1
        assert (f"error: train.weight_decay must be finite and >= 0, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("data.noise_sigma", "inf", "data.noise_sigma must be finite and > 0, got inf"),
        ("data.mean_scale", "1e300", "mean_scale 1e+300 and noise_sigma 0.6 give features "
                                     "beyond float32 range"),
        ("data.noise_sigma", "1e300", "mean_scale 1 and noise_sigma 1e+300 give features "
                                      "beyond float32 range"),
    ])
    def test_features_beyond_float32_named_before_training(self, tmp_path, capsys, monkeypatch,
                                                           key, value, message):
        def never(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr("arcbench.harness.fit_task", never)
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, f"--{key}", value, "--run.output_dir", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_temperature_beyond_float_range_is_the_infinite_limit(self, tmp_path):
        # temperature ** 2 overflows a float at stage 3; the scale is then inf,
        # as it is for an infinite temperature
        csvs = {}
        for value in ("1e200", "inf"):
            out = tmp_path / value
            assert run_cli(["run", *TINY, "--arc.temperature", value, "--arc.gamma", "inf",
                            "--run.output_dir", str(out)]) == 0
            csvs[value] = {name: (out / name).read_bytes()
                           for name in sorted(os.listdir(out)) if name.endswith(".csv")}
        assert csvs["1e200"] == csvs["inf"]

    def test_overflowing_retention_steps_are_skipped(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--arc.lr", "1e308", "--run.output_dir", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    @pytest.mark.skipif(not trains_in_child(),
                        reason="training runs in a child on Linux with two CPUs only")
    def test_dead_training_child_reported_without_bundle(self, tmp_path, capsys, monkeypatch):
        def killed(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr("arcbench.harness.fit_task", killed)
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.output_dir", str(out)]) == 1
        assert "exited with code 3" in capsys.readouterr().err
        assert not out.exists()


class TestStageSchedules:
    @pytest.mark.skipif(not trains_in_child(),
                        reason="training runs in a child on Linux with two CPUs only")
    @pytest.mark.parametrize("command", ["run", "probe", "ablate", "validate-otd"])
    def test_bundle_same_when_child_evaluates_late_stages(self, tmp_path, monkeypatch, command):
        """The child evaluating stages 3 and 2 or this process evaluating all
        three, in-process: every CSV is byte-identical and every stage is
        evaluated once."""
        args = [command, *TINY, "--ablate.losses", "em,both", "--ablate.betas", "0.6,0.9",
                "--ablate.gammas", "0.8,1"]
        csvs, logs = {}, {}
        for schedule in ("late_claims", "one_cpu"):
            out = tmp_path / schedule
            with monkeypatch.context() as m:
                if schedule == "late_claims":
                    late_claims(m)
                else:
                    m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
                logged = log_stages(m, tmp_path / f"{schedule}.log")
                assert run_cli([*args, "--run.output_dir", str(out)]) == 0
                logs[schedule] = logged()
            csvs[schedule] = {name: (out / name).read_bytes()
                              for name in sorted(os.listdir(out)) if name.endswith(".csv")}
        assert csvs["late_claims"] == csvs["one_cpu"]
        parent = os.getpid()
        assert logs["one_cpu"] == [(parent, 1), (parent, 2), (parent, 3)]
        by_stage = sorted(logs["late_claims"], key=lambda entry: entry[1])
        assert [stage for _, stage in by_stage] == [1, 2, 3]
        assert [pid == parent for pid, _ in by_stage] == [True, False, False]


class TestListKeys:
    @pytest.mark.parametrize("command, key, value", [
        ("run", "run.seeds", "0,0"),
        ("validate-otd", "otd.betas", "0.8,0.80"),
        ("ablate", "ablate.losses", "ce,em,ce"),
        ("ablate", "ablate.temperatures", "on,on"),
        ("ablate", "ablate.w_modes", "raw,raw"),
        ("ablate", "ablate.betas", "0.5,0.5"),
        ("ablate", "ablate.gammas", "1,1.0"),
    ])
    def test_repeated_value_named(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "bundle"
        assert run_cli([command, *TINY, f"--{key}", value, "--run.output_dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert key in err and "repeated value" in err
        assert not out.exists()


def effective(flags=None, file_values=None) -> dict:
    return _effective_config(file_values or {}, flags or {})


# each train.*, arc.* and generator data.* key: a value other than its default
# and the field of cfg.train, cfg.arc or cfg.spec that it sets
KEY_FIELDS = {
    "data.num_tasks": ("4", "spec.num_tasks"),
    "data.step": ("3", "spec.step"),
    "data.dim": ("9", "spec.dim"),
    "data.mean_scale": ("2.5", "spec.mean_scale"),
    "data.noise_sigma": ("0.25", "spec.noise_sigma"),
    "data.train_per_class": ("7", "spec.train_per_class"),
    "data.test_per_class": ("5", "spec.test_per_class"),
    "train.epochs": ("3", "train.epochs"),
    "train.lr": ("0.5", "train.lr"),
    "train.batch_size": ("8", "train.batch_size"),
    "train.weight_decay": ("0.01", "train.weight_decay"),
    "train.replay_per_class": ("2", "train.replay_per_class"),
    "arc.beta": ("0.5", "arc.beta"),
    "arc.gamma": ("1.5", "arc.gamma"),
    "arc.temperature": ("3", "arc.temperature"),
    "arc.lr": ("0.2", "arc.lr"),
    "arc.retention": ("false", "arc.retention"),
    "arc.correction": ("false", "arc.correction"),
    "arc.batch_size": ("16", "arc.batch_size"),
    "arc.arc_last": ("true", "arc.arc_last"),
    "arc.w_mode": ("raw", "arc.w_mode"),
    "arc.retention_loss": ("ce", "arc.retention_loss"),
}


def config_fields(cfg: RunConfig) -> dict:
    """Every field of cfg.train, cfg.arc and cfg.spec, by dotted path."""
    return {f"{name}.{f.name}": getattr(getattr(cfg, name), f.name)
            for name in ("train", "arc", "spec") for f in fields(getattr(cfg, name))}


class TestConfigBoundary:
    def test_config_file_with_comments_blanks_and_spaces(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\n  arc.beta=0.7\n\t# indented comment\n"
                        "train.epochs   =   3  \nrun.seeds = 1, 2\n")
        raw = read_config_file(str(path))
        assert raw == {"arc.beta": "0.7", "train.epochs": "3", "run.seeds": "1, 2"}
        values = effective(file_values=raw)
        assert (values["arc.beta"], values["train.epochs"], values["run.seeds"]) == (0.7, 3, [1, 2])
        message = f"^config file is not a file: {re.escape(str(tmp_path))}$"
        with pytest.raises(ConfigError, match=message):  # a directory
            read_config_file(str(tmp_path))

    def test_config_file_feeds_a_run(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# tiny\narc.beta = 0.7\narc.retention = off\n")
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--config", str(path), "--run.output_dir", str(out)]) == 0
        lines = (out / "metadata.txt").read_text().splitlines()
        assert "arc.beta = 0.69999999999999996" in lines and "arc.retention = 0" in lines

    def test_repeated_file_key_names_both_lines(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("arc.beta = 0.7\n# again\narc.beta = 0.9\n")
        message = r"twice\.cfg:3: config key 'arc\.beta' repeats line 1$"
        with pytest.raises(ConfigError, match=message):
            read_config_file(str(path))
        assert run_cli(["run", "--config", str(path)]) == 1
        assert "'arc.beta' repeats line 1" in capsys.readouterr().err

    def test_flag_overrides_file(self):
        values = effective(flags={"arc.beta": "0.6"}, file_values={"arc.beta": "0.7"})
        assert values["arc.beta"] == 0.6

    def test_env_overrides_file_but_not_flag(self, monkeypatch):
        monkeypatch.setenv("ARCBENCH_OUTPUT_DIR", "from-env")
        file_values = {"run.output_dir": "from-file"}
        assert effective(file_values=file_values)["run.output_dir"] == "from-env"
        flags = {"run.output_dir": "from-flag"}
        assert effective(flags, file_values)["run.output_dir"] == "from-flag"

    @pytest.mark.parametrize("text, value", [
        *((text, True) for text in ("true", "1", "yes", "on", " TRUE ", "On")),
        *((text, False) for text in ("false", "0", "no", "off", "False", " NO")),
    ])
    def test_boolean_spellings(self, text, value):
        assert effective({"arc.arc_last": text})["arc.arc_last"] is value

    def test_rejected_boolean_named(self):
        with pytest.raises(ConfigError, match="'arc.retention' \\(from flag\\): not a boolean"):
            effective({"arc.retention": "maybe"})

    @pytest.mark.parametrize("flags, message", [
        ({"data.source": "images"}, "data.source must be synthetic or embeddings"),
        ({"data.source": "embeddings"}, "data.path is required when data.source=embeddings"),
        ({"run.seeds": ""}, r"'run.seeds' \(from flag\): must list at least one value"),
        ({"run.seeds": " , "}, r"'run.seeds' \(from flag\): must list at least one value"),
        ({"run.seeds": "0,-1"}, "run.seeds must be nonnegative"),
        ({"data.path": "/nonexistent"}, "data.path is set but data.source is synthetic"),
        ({"data.source": "embeddings", "data.path": "/nonexistent"},
         "data.path is not a file: '/nonexistent'"),
        ({"data.source": "embeddings", "data.path": "."}, "data.path is not a file: '.'"),
        ({"ablate.betas": ""}, r"'ablate.betas' \(from flag\): must list at least one value"),
        ({"otd.betas": " "}, r"'otd.betas' \(from flag\): must list at least one value"),
    ])
    def test_run_config_errors(self, flags, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(effective(flags))

    @pytest.mark.parametrize("key, value, message", [
        ("data.num_tasks", "0", "data.num_tasks must be >= 1, got 0"),
        ("data.step", "0", "data.step must be >= 1, got 0"),
        ("data.dim", "1", "data.dim must be >= 2, got 1"),
        ("data.train_per_class", "0", "data.train_per_class must be >= 1, got 0"),
        ("data.test_per_class", "0", "data.test_per_class must be >= 1, got 0"),
        ("data.mean_scale", "-1", "data.mean_scale must be finite and >= 0, got -1.0"),
        ("data.mean_scale", "inf", "data.mean_scale must be finite and >= 0, got inf"),
        ("data.noise_sigma", "0", "data.noise_sigma must be finite and > 0, got 0.0"),
        ("data.noise_sigma", "nan", "data.noise_sigma must be finite and > 0, got nan"),
    ])
    def test_data_errors_name_their_key(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, f"--{key}", value, "--run.output_dir", str(out)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_build_the_default_configs(self):
        cfg = RunConfig(effective())
        assert cfg.train == TrainConfig()
        assert cfg.arc == ArcConfig()
        assert cfg.spec == SyntheticSpec(seed=0)

    def test_otd_betas_build_arc_configs_in_order(self):
        cfg = RunConfig(effective({"otd.betas": "0.9,0.1,0.5", "arc.gamma": "0.6"}))
        assert [arc.beta for arc in cfg.otd_arcs] == [0.9, 0.1, 0.5]
        assert all(replace(arc, beta=cfg.arc.beta) == cfg.arc for arc in cfg.otd_arcs)

    @pytest.mark.parametrize("key", [key for key in SCHEMA
                                     if key.startswith(("train.", "arc.", "data."))
                                     and key not in ("data.source", "data.path")])
    def test_key_reaches_its_field_alone(self, key):
        text, path = KEY_FIELDS[key]
        default = config_fields(RunConfig(effective()))
        changed = config_fields(RunConfig(effective({key: text})))
        assert {p for p in default if changed[p] != default[p]} == {path}
        assert changed[path] == SCHEMA[key][0](text)

    def test_every_config_field_has_a_key(self):
        """A field that no key sets (a new or renamed one) fails here."""
        paths = set(config_fields(RunConfig(effective()))) - {"spec.seed"}
        assert sorted(path for _, path in KEY_FIELDS.values()) == sorted(paths)
        assert {f"data.{f.name}" for f in fields(SyntheticSpec)} - {"data.seed"} <= set(SCHEMA)

    def test_help_lists_allowed_values(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["run", "--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        help_of = {chunk.split()[0]: chunk for chunk in text.split(" --")[1:]}
        for key, allowed in [("arc.w_mode", "ratio | raw"), ("ablate.losses", "ce | em | both"),
                             ("ablate.temperatures", "on (arc.temperature) | off (1)"),
                             ("ablate.w_modes", "ratio | raw")]:
            assert f": {allowed} (default:" in help_of[key]

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse lays help out differently in other Python versions; "
                               "cli_help.txt was recorded with Python 3.11")
    def test_help_text_unchanged(self, capsys, monkeypatch):
        """The --help text of arcbench and of each subcommand, at 80 columns."""
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for command in ([], *([name] for name in cli.COMMANDS)):
            with pytest.raises(SystemExit) as stop:
                main([*command, "--help"])
            assert stop.value.code == 0
            texts.append(f"==> {' '.join(['arcbench', *command, '--help'])} <==\n"
                         + capsys.readouterr().out)
        with open(HELP_TEXT, encoding="utf-8") as fh:
            assert "".join(texts) == fh.read()

    @pytest.mark.parametrize("lead", ["", "# " + "x" * 10000 + "\n"], ids=["short", "long"])
    def test_config_file_not_utf8_named(self, tmp_path, capsys, lead):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(f"{lead}arc.beta = 0.7\r\n# café\n".encode("latin-1"))
        offset = len(lead) + 21  # of the é
        lineno = 2 + lead.count("\n")
        message = (f"{path}:{lineno}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in "
                   f"position {offset}: invalid continuation byte")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            read_config_file(str(path))
        assert run_cli(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRecordText:
    @staticmethod
    def trace(stage, rng, n=6):
        records = np.zeros(n, RECORD_DTYPE).view(np.recarray)
        records.initial_class = rng.integers(0, 40, n)
        records.final_class = rng.integers(0, 40, n)
        records.decision = [list(OtdDecision)[i % 3] for i in range(n)]
        records.retention_applied = [i % 2 == 0 for i in range(n)]
        records.confidence = rng.random(n)
        records.masked_confidence = np.nan if stage == 1 else rng.random(n)
        records.ratio = np.nan if stage == 1 else 1 / 3 + rng.random(n)
        return StageTrace(stage, records, rng.integers(0, 40, n),
                          rng.integers(1, stage + 1, n), 0)

    @pytest.mark.parametrize("beta", [None, 0.8])
    def test_matches_render_csv(self, beta):
        rng = np.random.default_rng(5)
        seed = 2**40 + 3
        traces = [self.trace(1, rng), self.trace(2, rng)]
        lead = [seed] if beta is None else [seed, beta]
        rows = []
        for trace in traces:
            for position, rec in enumerate(trace.records):
                undefined = [None if np.isnan(v) else v for v in (rec.masked_confidence, rec.ratio)]
                rows.append([*lead, trace.stage, position, trace.true_tasks[position],
                             trace.true_labels[position], rec.initial_class, rec.final_class,
                             rec.decision.value, bool(rec.retention_applied), rec.confidence,
                             *undefined])
        header = [*(["seed"] if beta is None else ["seed", "beta"]), *RECORD_COLUMNS]
        rendered = render_csv(header, rows)
        assert rendered.count(",,") == 6  # the stage-1 rows, both cells empty
        text = "".join(_record_text(seed, trace, beta=beta) for trace in traces)
        assert render_csv(header, []) + text == rendered

    def test_bundle_cells_by_column_name(self, tmp_path):
        """Each arc_records.csv cell sits under the header that names it: every
        column after seed, read by name, equals that field of run_stream's traces."""
        out = tmp_path / "bundle"
        assert run_cli(["run", *TINY, "--run.seeds", "0", "--run.output_dir", str(out)]) == 0
        with open(out / "arc_records.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["seed", *RECORD_COLUMNS]
            rows = list(reader)
        flags = {key.removeprefix("--"): value for key, value in zip(TINY[::2], TINY[1::2])}
        flags["run.output_dir"] = str(tmp_path / "unused")
        cfg = RunConfig(_effective_config({}, flags))
        traces = run_stream(cfg.stream_for_seed(0), cfg.train, cfg.arc, 0).arc_traces
        expected = []
        for trace in traces:
            rec = trace.records
            for position in range(len(rec)):
                expected.append({
                    "stage": trace.stage, "position": position,
                    "true_task": trace.true_tasks[position],
                    "true_label": trace.true_labels[position],
                    **{name: rec[name][position] for name in RECORD_DTYPE.names},
                })
        assert len(rows) == len(expected) > 0
        assert rows[-1]["masked_confidence"] != ""  # the last stage defines every cell
        for row, want in zip(rows, expected):
            assert row["seed"] == "0"
            for name in ("stage", "position", "true_task", "true_label",
                         "initial_class", "final_class"):
                assert int(row[name]) == want[name], name
            assert row["decision"] == want["decision"].value
            assert row["retention_applied"] == ("1" if want["retention_applied"] else "0")
            for name in ("confidence", "masked_confidence", "ratio"):
                if np.isnan(want[name]):
                    assert row[name] == "", name
                else:
                    assert float(row[name]) == want[name], name
