"""Task-stream construction: seeded Gaussian synthetic data and EMB1 files.

Each class's draws come from its own substreams (see core.substream), so any
class's data can be regenerated independent of draw order.

EMB1 file format (little-endian, no padding):
    header: magic "EMB1", version u16 = 1, dim u32, num_tasks u32,
            step u32, example count u64
    record: task u16 (1-based), label u32 (0-based global),
            split u8 (0 = train, 1 = test), dim x float32 features
Records may come in any order; each task's train and test split keeps file
order. Trailing bytes after the last record, non-finite features, and a task
with no train or no test records are errors. TaskStream.validate rejects
non-finite features in any stream, and write_embeddings a value that float32
cannot hold, before it opens the file. Features stay float32 in memory,
as generated and as loaded, so a write/load round trip is bit-exact; a stream
of any float dtype is accepted, and every numeric entry point widens its own
input to float64. The loader reads the file twice, a bounded chunk at a time,
so its peak memory is the float32 stream plus one chunk.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import TaskLayout, substream

_MEANS_CODE = 2
_SPLIT_NAMES = ("train", "test")  # by split code, in EMB1 records and substream keys

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sHIIIQ")
_CHUNK_BYTES = 4 << 20  # the read size of each loader pass


def _record_dtype(dim: int) -> np.dtype:
    """One packed EMB1 record, as written and as read."""
    return np.dtype([("task", "<u2"), ("label", "<u4"), ("split", "u1"),
                     ("features", "<f4", (dim,))])


class EmbeddingFormatError(ValueError):
    """Raised for malformed EMB1 files."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Class-conditional Gaussian benchmark: means ~ N(0, mean_scale^2 I),
    samples = mean + N(0, noise_sigma^2 I)."""

    num_tasks: int = 10
    step: int = 10
    dim: int = 64
    mean_scale: float = 1.0
    noise_sigma: float = 0.6
    train_per_class: int = 100
    test_per_class: int = 100
    seed: int = 0

    def __post_init__(self):
        # each message starts with its field
        for name, least in (("num_tasks", 1), ("step", 1), ("dim", 2), ("train_per_class", 1),
                            ("test_per_class", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0 <= self.mean_scale < np.inf:
            raise ValueError(f"mean_scale must be finite and >= 0, got {self.mean_scale}")
        if not 0 < self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")

    @property
    def layout(self) -> TaskLayout:
        return TaskLayout(self.num_tasks, self.step)


@dataclass
class TaskData:
    """Labeled feature set for one task: features (n, D), float32 as generated
    and loaded (any float dtype works: every entry point widens), labels (n,).
    Its task is its position in TaskStream.train or TaskStream.test."""

    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class TaskStream:
    """Ordered per-task train/test datasets under a fixed class layout;
    ``sha256`` is the hex digest of the EMB1 file it was loaded from."""

    layout: TaskLayout
    train: list[TaskData]
    test: list[TaskData]
    sha256: str | None = None

    @property
    def dim(self) -> int:
        return self.train[0].features.shape[1]

    def validate(self) -> None:
        """Raise ValueError on a stream the package cannot use; writing and
        training each call this. Generating and loading do not: their own
        checks cover each of these, each feature checked once."""
        if len(self.train) != self.layout.num_tasks or len(self.test) != self.layout.num_tasks:
            raise ValueError("stream must have one train and one test set per task")
        for name, split in zip(_SPLIT_NAMES, (self.train, self.test)):
            for task_index, data in enumerate(split, start=1):
                # task 1's train split comes first, so self.dim is read once it is 2-D
                shape = data.features.shape
                if len(shape) != 2 or shape[1] < 1:
                    raise ValueError(f"task {task_index} {name} split's features must be 2-D "
                                     f"with at least one column, got shape {shape}")
                if shape[1] != self.dim:
                    raise ValueError(f"task {task_index} {name} split has {shape[1]} features "
                                     f"per row, task 1's train split {self.dim}")
                if not len(data):
                    raise ValueError(f"task {task_index} has an empty {name} split")
                if not np.isfinite(data.features).all():
                    raise ValueError(f"task {task_index} {name} split has non-finite features")
                labels = data.labels
                if not (isinstance(labels, np.ndarray) and labels.ndim == 1
                        and labels.dtype.kind in "iu"):
                    raise ValueError(f"task {task_index} {name} split's labels must be a 1-D "
                                     "integer array")
                if len(labels) != len(data):
                    raise ValueError("labels must be one per feature row")
                ok = self.layout.class_range(task_index)
                if not ((labels >= ok.start) & (labels < ok.stop)).all():
                    raise ValueError(f"labels outside task {task_index}'s class range")


def streams_equal(a: TaskStream, b: TaskStream) -> bool:
    """Field-by-field equality, features compared bit-exactly; the source
    file's digest is not compared."""
    if a.layout != b.layout:
        return False
    for split_a, split_b in ((a.train, b.train), (a.test, b.test)):
        if len(split_a) != len(split_b):
            return False
        for da, db in zip(split_a, split_b):
            if not np.array_equal(da.features, db.features):
                return False
            if not np.array_equal(da.labels, db.labels):
                return False
    return True


def _draw_class(spec: SyntheticSpec, task: int, cls: int, counts: tuple) -> list[np.ndarray]:
    """One class's features, counts[code] rows for each split code, around one
    mean drawn once; float32, the on-disk precision, so write/load is bit-exact
    (entry points widen)."""
    mean = spec.mean_scale * substream(spec.seed, task, cls, _MEANS_CODE).standard_normal(spec.dim)
    noise = (substream(spec.seed, task, cls, code).standard_normal((count, spec.dim))
             for code, count in enumerate(counts))
    return [(mean + spec.noise_sigma * z).astype(np.float32) for z in noise]


def generate_synthetic(spec: SyntheticSpec) -> TaskStream:
    """Deterministic task stream: a pure function of the spec (seed included)."""
    layout = spec.layout
    counts = (spec.train_per_class, spec.test_per_class)  # per class, by split code
    train: list[TaskData] = []
    test: list[TaskData] = []
    for task in range(1, spec.num_tasks + 1):
        classes = list(layout.class_range(task))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            draws = [_draw_class(spec, task, c, counts) for c in classes]
        for split_draws, per_class, bucket in zip(zip(*draws), counts, (train, test)):
            feats = np.vstack(split_draws)
            if not np.isfinite(feats).all():
                raise ValueError(f"mean_scale {spec.mean_scale:g} and noise_sigma "
                                 f"{spec.noise_sigma:g} give features beyond float32 range")
            labels = np.repeat(np.array(classes, dtype=np.int64), per_class)
            bucket.append(TaskData(feats, labels))
    return TaskStream(layout, train, test)


def write_embeddings(stream: TaskStream, path: str) -> None:
    """Serialize a stream to an EMB1 file (canonical order: task, train-then-test)."""
    stream.validate()
    dim = stream.dim
    count = sum(len(d) for d in stream.train) + sum(len(d) for d in stream.test)
    layout = stream.layout
    records = np.zeros(count, _record_dtype(dim))
    start = 0
    for task in range(1, layout.num_tasks + 1):
        for split_code, data in ((0, stream.train[task - 1]), (1, stream.test[task - 1])):
            rows = records[start : start + len(data)]
            rows["task"], rows["split"] = task, split_code
            rows["label"] = data.labels
            with np.errstate(over="ignore"):  # checked after the loop
                rows["features"] = data.features
            start += len(data)
    bad = np.flatnonzero(~np.isfinite(records["features"]).all(axis=1))
    if len(bad):  # a float64 value beyond float32 range; no file is written
        r = records[bad[0]]
        raise ValueError(f"record {bad[0]} (task {r['task']}, {_SPLIT_NAMES[r['split']]} split) "
                         "has features beyond float32 range")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, dim, layout.num_tasks, layout.step, count))
        fh.write(memoryview(records).cast("B"))  # the array's own bytes, not a copy


def _chunks(fh, dtype: np.dtype, count: int):
    """Yield (first record index, records) for the next `count` records of fh,
    at most _CHUNK_BYTES at a time; each array is a view on one reused buffer."""
    per_chunk = max(1, _CHUNK_BYTES // dtype.itemsize)
    buffer = bytearray(min(count, per_chunk) * dtype.itemsize)
    for start in range(0, count, per_chunk):
        n = min(per_chunk, count - start)
        if fh.readinto(memoryview(buffer)[: n * dtype.itemsize]) != n * dtype.itemsize:
            raise EmbeddingFormatError("truncated record")  # the file shrank between passes
        yield start, np.frombuffer(buffer, dtype, count=n)


def load_embeddings(path: str) -> TaskStream:
    """Parse an EMB1 file into a TaskStream. Records may come in any order;
    each split keeps file order. Of several faults, the first of these is raised:
    a header error; a bad task, split or label (at the first bad record in file
    order, checked in that order within it); truncation; trailing bytes;
    non-finite features (at the first such record in file order); an empty
    split. Two passes, each a bounded chunk at a time: the first reads task,
    label and split, checks them and hashes the file (the stream's sha256), the
    second copies each record's float32 features into its row of one array, so
    the peak is that array plus one chunk. The numeric entry points widen the
    rows they get to float64."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise EmbeddingFormatError("truncated header")
        magic, version, dim, num_tasks, step, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise EmbeddingFormatError(f"bad magic {magic!r}")
        if version != 1:
            raise EmbeddingFormatError(f"unsupported version {version}")
        if dim < 1 or num_tasks < 1 or step < 1:
            raise EmbeddingFormatError("header declares an empty layout")
        if count == 0:
            raise EmbeddingFormatError("no examples")
        layout = TaskLayout(num_tasks, step)
        digest = hashlib.sha256(header)  # with pass 1's chunks: every byte of a valid file

        size = os.fstat(fh.fileno()).st_size
        record_size = _record_dtype(0).itemsize + 4 * dim
        fit = min(count, (size - _HEADER.size) // record_size)  # never sized by the header
        if fit == 0:  # also keeps a header's absurd dim away from np.dtype
            raise EmbeddingFormatError("truncated record")
        record = _record_dtype(dim)
        task, split = np.empty(fit, np.int64), np.empty(fit, np.int64)
        label = np.empty(fit, np.uint32)
        for start, records in _chunks(fh, record, fit):
            digest.update(records)
            rows = slice(start, start + len(records))
            task[rows], split[rows], label[rows] = records["task"], records["split"], records["label"]
        # the first bad record in file order wins; within it, task, split, label
        bad_task = (task < 1) | (task > num_tasks)
        bad_split = split > 1
        bad_label = (label < step * (task - 1)) | (label >= step * task)
        bad = np.flatnonzero(bad_task | bad_split | bad_label)
        if len(bad):
            r = int(bad[0])
            if bad_task[r]:
                raise EmbeddingFormatError(f"task {task[r]} outside 1..{num_tasks}")
            if bad_split[r]:
                raise EmbeddingFormatError(f"bad split code {split[r]}")
            raise EmbeddingFormatError(f"label {label[r]} outside task {task[r]}'s class range")
        if fit < count:
            raise EmbeddingFormatError("truncated record")
        if _HEADER.size + count * record_size != size:
            raise EmbeddingFormatError("trailing bytes after last record")

        # bucket 2*(task-1) + split; each keeps its records in file order
        bucket = 2 * (task - 1) + split
        sizes = np.bincount(bucket)  # no minlength: a header may declare 2^32 tasks
        order = np.argsort(bucket, kind="stable")
        row = np.argsort(order)  # record i's row of features
        features = np.empty((fit, dim), np.float32)
        fh.seek(_HEADER.size)
        for start, records in _chunks(fh, record, fit):
            # checked before the copy, so no value reaches the stream unchecked
            bad = np.flatnonzero(~np.isfinite(records["features"]).all(axis=1))
            if len(bad):
                r = start + int(bad[0])
                raise EmbeddingFormatError(f"record {r} (task {task[r]}, {_SPLIT_NAMES[split[r]]} "
                                           "split) has non-finite features")
            features[row[start : start + len(records)]] = records["features"]
    empty = np.flatnonzero(sizes == 0)
    b = int(empty[0]) if len(empty) else len(sizes)
    if b < 2 * num_tasks:
        raise EmbeddingFormatError(f"task {b // 2 + 1} has an empty {_SPLIT_NAMES[b % 2]} split")
    cuts = np.cumsum(sizes)[:-1]
    data = [TaskData(x, y) for x, y in
            zip(np.split(features, cuts), np.split(label[order].astype(np.int64), cuts))]
    return TaskStream(layout, data[0::2], data[1::2], digest.hexdigest())
