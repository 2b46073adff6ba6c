import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest

from arcbench import data, harness
from arcbench.arc import ArcConfig
from arcbench.core import TrainConfig, fit_task, forward, new_head
from arcbench.data import (
    EmbeddingFormatError,
    SyntheticSpec,
    TaskData,
    TaskStream,
    generate_synthetic,
    load_embeddings,
    streams_equal,
    write_embeddings,
)
from arcbench.harness import run_stream, train_sequence

from oracles import task_of_class

SMALL = SyntheticSpec(num_tasks=2, step=3, dim=4, train_per_class=5, test_per_class=4, seed=7)
WIDE = SyntheticSpec(num_tasks=3, step=5, dim=256, train_per_class=100, test_per_class=100,
                     seed=0)  # 3000 records


@pytest.fixture
def chunk_sizes(monkeypatch):
    """Loop over it to run a block with the loader's chunk at its default size,
    then at one record and at three records of a `dim`-wide file, so a record
    the loader must find sits at a chunk border."""
    def sizes(dim):
        for records in (None, 1, 3):
            with monkeypatch.context() as patch:
                if records:
                    patch.setattr(data, "_CHUNK_BYTES", records * (7 + 4 * dim))
                yield records
    return sizes


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        assert streams_equal(a, b)

    def test_layout_arithmetic(self):
        stream = generate_synthetic(SMALL)
        assert stream.layout.num_classes == 6
        for c in range(6):
            assert task_of_class(stream.layout, c) == c // 3 + 1
        for task in (1, 2):
            labels = stream.train[task - 1].labels
            assert set(labels) == set(stream.layout.class_range(task))

    def test_counts_and_dims(self):
        stream = generate_synthetic(SMALL)
        for data in stream.train:
            assert len(data) == 3 * 5
            assert data.features.shape == (15, 4)
        for data in stream.test:
            assert len(data) == 3 * 4

    def test_well_separated_spec_is_jointly_learnable(self):
        spec = SyntheticSpec(
            num_tasks=2, step=3, dim=64, mean_scale=5.0, noise_sigma=0.3,
            train_per_class=40, test_per_class=25, seed=1,
        )
        stream = generate_synthetic(spec)
        x = np.vstack([d.features for d in stream.train])
        y = np.concatenate([d.labels for d in stream.train])
        head = new_head(64, spec.layout.num_classes)
        head = fit_task(head, x, y, TrainConfig(epochs=20, lr=0.1), seed=(0,))
        xt = np.vstack([d.features for d in stream.test])
        yt = np.concatenate([d.labels for d in stream.test])
        acc = np.mean(forward(head, xt).argmax(axis=1) == yt)
        assert acc >= 0.95

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(noise_sigma=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(dim=1)
        with pytest.raises(ValueError):
            SyntheticSpec(train_per_class=0)
        with pytest.raises(ValueError):
            SyntheticSpec(seed=-1)


class TestEmbeddingRoundTrip:
    def test_round_trip_identity(self, tmp_path, chunk_sizes):
        stream = generate_synthetic(SMALL)
        path = tmp_path / "stream.emb1"
        write_embeddings(stream, str(path))
        for _ in chunk_sizes(SMALL.dim):
            assert streams_equal(stream, load_embeddings(str(path)))

    def test_features_keep_file_precision(self, tmp_path):
        stream = generate_synthetic(SMALL)
        path = tmp_path / "stream.emb1"
        write_embeddings(stream, str(path))
        for source in (stream, load_embeddings(str(path))):
            for d in source.train + source.test:
                assert d.features.dtype == np.float32

    def test_float64_stream_writes_loads_and_runs(self, tmp_path):
        stream = generate_synthetic(SMALL)
        wide = TaskStream(SMALL.layout, *(
            [TaskData(d.features.astype(np.float64), d.labels) for d in split]
            for split in (stream.train, stream.test)))
        path, wide_path = tmp_path / "stream.emb1", tmp_path / "wide.emb1"
        write_embeddings(stream, str(path))
        write_embeddings(wide, str(wide_path))
        assert wide_path.read_bytes() == path.read_bytes()
        loaded = load_embeddings(str(wide_path))
        assert streams_equal(wide, loaded)
        cfg = TrainConfig(epochs=3, lr=0.5, batch_size=8)
        for a, b in zip(train_sequence(wide, cfg, seed=7), train_sequence(loaded, cfg, seed=7),
                        strict=True):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_records_in_any_order(self, tmp_path, chunk_sizes):
        # 32 records, not a multiple of a 3-record chunk
        spec = SyntheticSpec(num_tasks=2, step=2, dim=4, train_per_class=5, test_per_class=3, seed=3)
        stream = generate_synthetic(spec)
        path = tmp_path / "canonical.emb1"
        write_embeddings(stream, str(path))
        blob = path.read_bytes()
        size = 7 + 4 * spec.dim
        records = [blob[at : at + size] for at in range(26, len(blob), size)]
        fields = [struct.unpack_from("<HIB", r) for r in records]  # task, label, split
        bucket = np.array([2 * (task - 1) + split for task, _, split in fields])
        rng = np.random.default_rng(0)
        # splits interleaved, each in its canonical order: the canonical stream
        interleaved = np.empty(len(records), np.int64)
        interleaved[np.argsort(rng.permutation(bucket), kind="stable")] = np.arange(len(records))
        # every record anywhere: each split in the order a record-by-record reader meets it
        shuffled = rng.permutation(len(records))
        rows: dict[tuple[int, int], list] = {(t, s): [] for t in (1, 2) for s in (0, 1)}
        for i in shuffled:
            task, label, split = fields[i]
            rows[task, split].append((label, struct.unpack_from(f"<{spec.dim}f", records[i], 7)))
        expected = TaskStream(spec.layout, *(
            [TaskData(np.array([f for _, f in rows[t, s]]), np.array([y for y, _ in rows[t, s]]))
             for t in (1, 2)] for s in (0, 1)))
        for order, want in ((interleaved, stream), (shuffled, expected)):
            path.write_bytes(blob[:26] + b"".join(records[i] for i in order))
            for _ in chunk_sizes(spec.dim):
                assert streams_equal(load_embeddings(str(path)), want)

    def test_digest_is_the_file_sha256(self, tmp_path, chunk_sizes):
        stream = generate_synthetic(SMALL)
        assert stream.sha256 is None
        path = tmp_path / "stream.emb1"
        write_embeddings(stream, str(path))
        canonical = path.read_bytes()
        size = 7 + 4 * SMALL.dim
        records = [canonical[at : at + size] for at in range(26, len(canonical), size)]
        order = np.random.default_rng(1).permutation(len(records))
        shuffled = canonical[:26] + b"".join(records[i] for i in order)
        for blob in (canonical, shuffled):
            path.write_bytes(blob)
            for _ in chunk_sizes(SMALL.dim):
                assert load_embeddings(str(path)).sha256 == hashlib.sha256(blob).hexdigest()
        path.write_bytes(canonical)
        assert streams_equal(load_embeddings(str(path)), stream)  # the digest is not compared

    def test_peak_memory_is_the_stream_plus_one_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "wide.emb1"
        write_embeddings(generate_synthetic(WIDE), str(path))
        monkeypatch.setattr(data, "_CHUNK_BYTES", 64 << 10)
        tracemalloc.start()
        try:
            load_embeddings(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 stream's bytes and a chunk; a float64 copy would be 2x
        assert peak <= 1.15 * 3000 * WIDE.dim * 4

    def test_write_holds_the_records_once(self, tmp_path):
        stream = generate_synthetic(WIDE)
        path = tmp_path / "wide.emb1"
        tracemalloc.start()
        try:
            write_embeddings(stream, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the packed records and the finiteness mask; a bytes copy of the records would be 2x
        assert peak < 1.5 * path.stat().st_size

    def test_canonical_encoding(self, tmp_path):
        stream = generate_synthetic(SMALL)
        a, b = tmp_path / "a.emb1", tmp_path / "b.emb1"
        write_embeddings(stream, str(a))
        write_embeddings(stream, str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dim", [8, 64, 768])
    def test_bytes_match_the_format_spec(self, tmp_path, dim):
        # each record packed field by field, as the module docstring lays it out
        stream = generate_synthetic(SyntheticSpec(num_tasks=2, step=2, dim=dim, train_per_class=3,
                                                  test_per_class=2, seed=1))
        expected = [struct.pack("<4sHIIIQ", b"EMB1", 1, dim, 2, 2, 20)]
        for task in (1, 2):
            for split, data in ((0, stream.train[task - 1]), (1, stream.test[task - 1])):
                for row, label in zip(data.features, data.labels):
                    expected.append(struct.pack(f"<HIB{dim}f", task, int(label), split, *row))
        path = tmp_path / "spec.emb1"
        write_embeddings(stream, str(path))
        assert path.read_bytes() == b"".join(expected)

    def test_file_size_arithmetic(self, tmp_path):
        spec = SyntheticSpec(num_tasks=1, step=1, dim=3, train_per_class=1,
                             test_per_class=1, seed=0)
        stream = generate_synthetic(spec)
        path = tmp_path / "two.emb1"
        write_embeddings(stream, str(path))
        assert path.stat().st_size == 26 + 2 * (7 + 4 * 3)  # header + two records

    def test_zero_dim_rejected_before_write(self, tmp_path):
        stream = generate_synthetic(SMALL)
        for data in stream.train + stream.test:
            data.features = data.features[:, :0]
        with pytest.raises(ValueError):
            write_embeddings(stream, str(tmp_path / "bad.emb1"))
        assert not (tmp_path / "bad.emb1").exists()


class TestEmbeddingValidation:
    def write_valid(self, tmp_path):
        path = tmp_path / "valid.emb1"
        write_embeddings(generate_synthetic(SMALL), str(path))
        return path

    def test_bad_magic(self, tmp_path):
        path = self.write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(EmbeddingFormatError, match="magic"):
            load_embeddings(str(path))

    def test_truncated_record(self, tmp_path):
        path = self.write_valid(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(EmbeddingFormatError, match="truncated"):
            load_embeddings(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = self.write_valid(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(EmbeddingFormatError, match="trailing"):
            load_embeddings(str(path))

    def test_label_outside_declared_range(self, tmp_path):
        header = struct.pack("<4sHIIIQ", b"EMB1", 1, 2, 2, 3, 1)
        record = struct.pack("<HIB", 1, 5, 0) + struct.pack("<2f", 0.0, 0.0)
        path = tmp_path / "range.emb1"
        path.write_bytes(header + record)  # label 5 belongs to task 2, not 1
        with pytest.raises(EmbeddingFormatError, match="label"):
            load_embeddings(str(path))

    def test_empty_body(self, tmp_path):
        header = struct.pack("<4sHIIIQ", b"EMB1", 1, 2, 1, 1, 0)
        path = tmp_path / "empty.emb1"
        path.write_bytes(header)
        with pytest.raises(EmbeddingFormatError, match="no examples"):
            load_embeddings(str(path))

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split(self, tmp_path, split):
        # one record in each split of each task, but none in task 2's train or test split
        records = [(task, 3 * (task - 1), code) for task in (1, 2) for code in (0, 1)
                   if (task, code) != (2, ("train", "test").index(split))]
        header = struct.pack("<4sHIIIQ", b"EMB1", 1, 2, 2, 3, len(records))
        path = tmp_path / "empty-split.emb1"
        path.write_bytes(header + b"".join(self.record(*fields) for fields in records))
        with pytest.raises(EmbeddingFormatError, match=f"task 2 has an empty {split} split"):
            load_embeddings(str(path))

    @pytest.mark.parametrize("bad, first, where", [
        ({44: np.nan, 50: np.inf}, 44, "task 2, test split"),
        ({3: -np.inf}, 3, "task 1, train split"),
    ])
    def test_non_finite_features(self, tmp_path, chunk_sizes, bad, first, where):
        # canonical order: task 1 train (15 records), task 1 test (12), then task 2
        path = self.write_valid(tmp_path)
        blob = bytearray(path.read_bytes())
        for record, value in bad.items():
            at = 26 + record * (7 + 4 * SMALL.dim) + 7 + 4 * (record % SMALL.dim)
            blob[at : at + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(blob))
        for _ in chunk_sizes(SMALL.dim):
            with pytest.raises(EmbeddingFormatError,
                               match=rf"record {first} \({where}\) has non-finite features"):
                load_embeddings(str(path))

    @staticmethod
    def record(task, label, split, *features):
        return struct.pack("<HIB", task, label, split) + struct.pack("<2f", *(features or (0.0, 0.0)))

    @pytest.mark.parametrize("records, count, tail, message", [
        # a bad label in record 0 wins over a bad task in record 1
        ([(1, 5, 0), (9, 0, 0)], 2, b"", "label 5 outside task 1's class range"),
        # within one record: task, then split, then label
        ([(3, 99, 7)], 1, b"", r"task 3 outside 1\.\.2"),
        ([(1, 99, 7)], 1, b"", "bad split code 7"),
        # a bad record that fits wins over the truncated one after it
        ([(1, 0, 0), (2, 3, 4)], 3, b"\x01", "bad split code 4"),
        # truncation wins over non-finite features
        ([(1, 0, 0, float("nan"), 0.0)], 2, b"\x01", "truncated record"),
        # trailing bytes win over non-finite features and empty splits
        ([(1, 0, 0, float("inf"), 0.0)], 1, b"\x00" * 16, "trailing bytes"),
        # non-finite features win over empty splits
        ([(2, 3, 1), (1, 0, 0, 0.0, float("nan"))], 2, b"", r"record 1 \(task 1, train split\)"),
    ])
    def test_error_precedence(self, tmp_path, chunk_sizes, records, count, tail, message):
        header = struct.pack("<4sHIIIQ", b"EMB1", 1, 2, 2, 3, count)
        path = tmp_path / "faults.emb1"
        path.write_bytes(header + b"".join(self.record(*fields) for fields in records) + tail)
        for _ in chunk_sizes(2):
            with pytest.raises(EmbeddingFormatError, match=message):
                load_embeddings(str(path))

    def test_short_read_between_passes(self):
        # a file that shrinks after the size check ends the load; no chunk buffer is reused stale
        short = io.BytesIO(self.record(1, 0, 0)[:-1])
        with pytest.raises(EmbeddingFormatError, match="truncated record"):
            list(data._chunks(short, data._record_dtype(2), 1))

    @pytest.mark.parametrize("dim, num_tasks, count, message", [
        (2**32 - 1, 1, 1, "truncated record"),
        (2, 2**32 - 1, 1, "task 1 has an empty test split"),
        (2, 1, 2**64 - 1, "truncated record"),
    ])
    def test_absurd_header_sizes(self, tmp_path, dim, num_tasks, count, message):
        # no size may reach an allocation: the file holds one 2-dim record
        header = struct.pack("<4sHIIIQ", b"EMB1", 1, dim, num_tasks, 1, count)
        path = tmp_path / "absurd.emb1"
        path.write_bytes(header + self.record(1, 0, 0))
        with pytest.raises(EmbeddingFormatError, match=message):
            load_embeddings(str(path))

    def test_stream_validation_catches_range_violations(self):
        stream = generate_synthetic(SMALL)
        stream.train[0].labels = stream.train[0].labels.copy()
        stream.train[0].labels[0] = 5  # task 2's class inside task 1's data
        with pytest.raises(ValueError, match="class range"):
            stream.validate()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_swapped_task_datasets_rejected(self, split):
        # a dataset's task is its position: task 2's data in task 1's place
        stream = generate_synthetic(SMALL)
        datasets = getattr(stream, split)
        datasets[0], datasets[1] = datasets[1], datasets[0]
        with pytest.raises(ValueError, match=r"^labels outside task 1's class range$"):
            stream.validate()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_rejected_at_the_boundary(self, tmp_path, monkeypatch, split):
        stream = generate_synthetic(SMALL)
        data = getattr(stream, split)[1]
        data.features, data.labels = data.features[:0], data.labels[:0]
        message = f"^task 2 has an empty {split} split$"
        with pytest.raises(ValueError, match=message):
            stream.validate()

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "fit_task", no_training)
        with pytest.raises(ValueError, match=message):
            run_stream(stream, TrainConfig(epochs=1), ArcConfig(), seed=0)
        path = tmp_path / "empty.emb1"
        with pytest.raises(ValueError, match=message):
            write_embeddings(stream, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_non_finite_stream_rejected_at_the_boundary(self, tmp_path, monkeypatch, split):
        stream = generate_synthetic(SMALL)
        getattr(stream, split)[1].features[2, 1] = np.nan
        message = f"^task 2 {split} split has non-finite features$"

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "fit_task", no_training)
        with pytest.raises(ValueError, match=message):
            run_stream(stream, TrainConfig(epochs=1), ArcConfig(), seed=0)
        path = tmp_path / "nan.emb1"
        with pytest.raises(ValueError, match=message):
            write_embeddings(stream, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda s: setattr(s.train[0], "features", np.zeros(4, np.float32)),
         r"task 1 train split's features must be 2-D with at least one column, got shape \(4,\)"),
        (lambda s: [setattr(d, "features", d.features[:, :0]) for d in s.train + s.test],
         r"task 1 train split's features must be 2-D with at least one column, "
         r"got shape \(15, 0\)"),
        (lambda s: setattr(s.test[1], "features", s.test[1].features[:, :3]),
         r"task 2 test split has 3 features per row, task 1's train split 4"),
        (lambda s: setattr(s.test[1], "labels", s.test[1].labels + 0.5),
         r"task 2 test split's labels must be a 1-D integer array"),
        (lambda s: setattr(s.train[0], "labels", s.train[0].labels > 0),
         r"task 1 train split's labels must be a 1-D integer array"),
    ], ids=["1d-features", "zero-width", "other-width", "float-labels", "bool-labels"])
    def test_bad_shape_or_label_type_rejected_at_the_boundary(self, tmp_path, monkeypatch,
                                                              corrupt, message):
        stream = generate_synthetic(SMALL)
        corrupt(stream)
        message = f"^{message}$"
        with pytest.raises(ValueError, match=message):
            stream.validate()

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "fit_task", no_training)
        with pytest.raises(ValueError, match=message):
            run_stream(stream, TrainConfig(epochs=1), ArcConfig(), seed=0)
        path = tmp_path / "bad.emb1"
        with pytest.raises(ValueError, match=message):
            write_embeddings(stream, str(path))
        assert not path.exists()

    def test_float64_beyond_float32_range_not_written(self, tmp_path):
        stream = generate_synthetic(SMALL)
        wide = stream.test[0].features.astype(np.float64)
        wide[3, 0] = 1e39  # finite as float64, inf as float32
        stream.test[0].features = wide
        path = tmp_path / "wide.emb1"
        with pytest.raises(ValueError, match=r"^record 18 \(task 1, test split\) has features "
                                             r"beyond float32 range$"):
            write_embeddings(stream, str(path))
        assert not path.exists()
