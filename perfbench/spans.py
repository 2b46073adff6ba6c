"""Span store and the arithmetic the benchmark reports from it.

A span is one call into a traced function: (name, start_ns, end_ns,
parent_index); the run id is the traced process's. Spans stay in memory
in the traced process and are written once, to one file, when it ends.
Self time is a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import defaultdict


class Tracer:
    """In-memory spans of one traced process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._flat = array("q")  # name_id, start_ns, end_ns, parent per span
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._flat) // 4
        parent = self._stack[-1] if self._stack else -1
        self._flat.extend((name_id, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._flat[4 * index + 2] = time.perf_counter_ns()
        self._stack.pop()

    def dump(self, path: str, **extra) -> None:
        """One JSON header line, then the spans as native int64 quadruples."""
        header = {"run_id": self.run_id, "names": self.names, **extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            fh.write(self._flat.tobytes())


def load(path: str) -> tuple[dict, list[tuple[str, int, int, int]]]:
    """Read a file written by Tracer.dump: (header, [(name, start, end, parent)])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        flat = array("q")
        flat.frombytes(fh.read())
    names = header["names"]
    spans = [(names[flat[i]], flat[i + 1], flat[i + 2], flat[i + 3])
             for i in range(0, len(flat), 4)]
    return header, spans


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Self time of each span in ns: its duration minus the union of its
    children's intervals clipped to it."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it. Raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]
