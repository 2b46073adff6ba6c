"""Task-stream construction: seeded Gaussian synthetic data and EMB1 files.

RNG substreams are keyed as (seed, task, class, code) with code 0 = train
draws, 1 = test draws, 2 = the class-mean draw, so any class's data can be
regenerated independent of draw order.

EMB1 file format (little-endian, no padding):
    header: magic "EMB1", version u16 = 1, dim u32, num_tasks u32,
            step u32, example count u64
    record: task u16 (1-based), label u32 (0-based global),
            split u8 (0 = train, 1 = test), dim x float32 features
Trailing bytes after the last record, non-finite features, and a task with
no train or no test records are errors. Features are widened to
float64 in memory; the generator rounds through float32 so that a write/load
round trip is bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import TaskLayout
from .seeding import substream

_MEANS_CODE = 2
_SPLIT_CODES = {"train": 0, "test": 1}
_SPLIT_NAMES = tuple(_SPLIT_CODES)

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sHIIIQ")


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
        if self.num_tasks < 1 or self.step < 1:
            raise ValueError("num_tasks and step must be >= 1")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not self.noise_sigma > 0:
            raise ValueError("noise_sigma must be > 0")
        if not np.isfinite(self.mean_scale) or self.mean_scale < 0:
            raise ValueError("mean_scale must be finite and >= 0")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("per-class counts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def layout(self) -> TaskLayout:
        return TaskLayout(self.num_tasks, self.step)


@dataclass
class TaskData:
    """Labeled feature set for one task: features (n, D), global labels (n,)."""

    task: int
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class TaskStream:
    """Ordered per-task train/test datasets under a fixed class layout."""

    layout: TaskLayout
    train: list[TaskData]
    test: list[TaskData]

    @property
    def dim(self) -> int:
        return self.train[0].features.shape[1]

    def validate(self) -> None:
        if len(self.train) != self.layout.num_tasks or len(self.test) != self.layout.num_tasks:
            raise ValueError("stream must have one train and one test set per task")
        dim = self.dim
        for split in (self.train, self.test):
            for task_index, data in enumerate(split, start=1):
                if data.task != task_index:
                    raise ValueError("task datasets out of order")
                if data.features.ndim != 2 or data.features.shape[1] != dim:
                    raise ValueError("feature dimensions not uniform")
                if len(data.labels) != len(data):
                    raise ValueError("labels must be one per feature row")
                ok = self.layout.class_range(task_index)
                if len(data) and not (
                    (data.labels >= ok.start) & (data.labels < ok.stop)
                ).all():
                    raise ValueError(f"labels outside task {task_index}'s class range")


def streams_equal(a: TaskStream, b: TaskStream) -> bool:
    """Field-by-field equality, features compared bit-exactly."""
    if a.layout != b.layout:
        return False
    for split_a, split_b in ((a.train, b.train), (a.test, b.test)):
        if len(split_a) != len(split_b):
            return False
        for da, db in zip(split_a, split_b):
            if da.task != db.task:
                return False
            if not np.array_equal(da.features, db.features):
                return False
            if not np.array_equal(da.labels, db.labels):
                return False
    return True


def _draw_class(spec: SyntheticSpec, task: int, cls: int, split: str, count: int) -> np.ndarray:
    mean = spec.mean_scale * substream(spec.seed, task, cls, _MEANS_CODE).standard_normal(spec.dim)
    rng = substream(spec.seed, task, cls, _SPLIT_CODES[split])
    x = mean + spec.noise_sigma * rng.standard_normal((count, spec.dim))
    # round through the on-disk precision so write/load is bit-exact
    return x.astype(np.float32).astype(np.float64)


def generate_synthetic(spec: SyntheticSpec) -> TaskStream:
    """Deterministic task stream: a pure function of the spec (seed included)."""
    layout = spec.layout
    train: list[TaskData] = []
    test: list[TaskData] = []
    for task in range(1, spec.num_tasks + 1):
        classes = list(layout.class_range(task))
        for split, per_class, bucket in (
            ("train", spec.train_per_class, train),
            ("test", spec.test_per_class, test),
        ):
            feats = np.vstack([_draw_class(spec, task, c, split, per_class) for c in classes])
            labels = np.repeat(np.array(classes, dtype=np.int64), per_class)
            bucket.append(TaskData(task, feats, labels))
    stream = TaskStream(layout, train, test)
    stream.validate()
    return stream


def write_embeddings(stream: TaskStream, path: str) -> None:
    """Serialize a stream to an EMB1 file (canonical order: task, train-then-test)."""
    stream.validate()
    dim = stream.dim
    if dim < 1:
        raise ValueError("cannot write a stream with zero feature dimension")
    count = sum(len(d) for d in stream.train) + sum(len(d) for d in stream.test)
    if count == 0:
        raise ValueError("cannot write a stream with no examples")
    layout = stream.layout
    records = np.zeros(count, _record_dtype(dim))
    start = 0
    for task in range(1, layout.num_tasks + 1):
        for split_code, data in ((0, stream.train[task - 1]), (1, stream.test[task - 1])):
            rows = records[start : start + len(data)]
            rows["task"], rows["split"] = task, split_code
            rows["label"], rows["features"] = data.labels, data.features
            start += len(data)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, dim, layout.num_tasks, layout.step, count))
        fh.write(records.tobytes())


def load_embeddings(path: str) -> TaskStream:
    """Parse an EMB1 file back into a TaskStream, all records in one vectorized
    pass that raises the error a record-by-record reader would raise first."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise EmbeddingFormatError("truncated header")
    magic, version, dim, num_tasks, step, count = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise EmbeddingFormatError(f"bad magic {magic!r}")
    if version != 1:
        raise EmbeddingFormatError(f"unsupported version {version}")
    if dim < 1 or num_tasks < 1 or step < 1:
        raise EmbeddingFormatError("header declares an empty layout")
    if count == 0:
        raise EmbeddingFormatError("no examples")
    layout = TaskLayout(num_tasks, step)

    record_size = _record_dtype(0).itemsize + 4 * dim
    fit = min(count, (len(blob) - _HEADER.size) // record_size)
    if fit == 0:  # also keeps a header's absurd dim away from np.dtype
        raise EmbeddingFormatError("truncated record")
    records = np.frombuffer(blob, dtype=_record_dtype(dim), count=fit, offset=_HEADER.size)
    task, split = records["task"].astype(np.int64), records["split"].astype(np.int64)
    label = records["label"]
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
    if _HEADER.size + count * record_size != len(blob):
        raise EmbeddingFormatError("trailing bytes after last record")
    bad = np.flatnonzero(~np.isfinite(records["features"]).all(axis=1))
    if len(bad):
        r = int(bad[0])
        raise EmbeddingFormatError(f"record {r} (task {task[r]}, {_SPLIT_NAMES[split[r]]} split) "
                                   "has non-finite features")
    # bucket 2*(task-1) + split; each keeps its records in file order
    bucket = 2 * (task - 1) + split
    sizes = np.bincount(bucket)  # no minlength: a header may declare 2^32 tasks
    empty = np.flatnonzero(sizes == 0)
    b = int(empty[0]) if len(empty) else len(sizes)
    if b < 2 * num_tasks:
        raise EmbeddingFormatError(f"task {b // 2 + 1} has an empty {_SPLIT_NAMES[b % 2]} split")
    buckets = np.split(np.argsort(bucket, kind="stable"), np.cumsum(sizes)[:-1])
    data = [TaskData(b // 2 + 1, records["features"][rows].astype(np.float64),
                     label[rows].astype(np.int64)) for b, rows in enumerate(buckets)]
    stream = TaskStream(layout, data[0::2], data[1::2])
    stream.validate()
    return stream
