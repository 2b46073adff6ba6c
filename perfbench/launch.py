"""Start the arcbench CLI in this process, instrumented from outside ``src/``.

    python3 -m perfbench.launch prepare INFO.json [EMB1_PATH SEED SPEC_JSON]
    python3 -m perfbench.launch setup -- <arcbench args>
    python3 -m perfbench.launch trace SPANS RUN_ID -- <arcbench args>

``prepare`` writes the numpy and BLAS versions to INFO.json. Given an EMB1
path, it first writes that input with ``write_embeddings`` from the
``SyntheticSpec`` fields in SPEC_JSON and the seed, and records its
sha256. This is input generation and is not timed. It runs in a child
process so that the benchmark's own process stays small: a child's peak
RSS as reported by ``wait4`` can never read below its parent's.

``setup`` runs the CLI until its input stream is ready (the first return
from ``generate_synthetic`` or ``load_embeddings``) and exits 0 there, so
the process's wall time is the CLI's set-up time. It exits 3 if the CLI
finishes without building a stream.

``trace`` runs the CLI to the end with wrappers around the module-level
names that callers resolve (``arcbench.arc.classify_sample``,
``arcbench.harness.forward``, ...). Each wrapper records a span; counts are
taken from arguments and return values (``ArcEvalResult`` records and
warnings), never from counters inside the package. Spans and counts are
written to SPANS once, after the CLI returns, and the process exits
with the CLI's status.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

import arcbench.cli  # imports every arcbench module
from arcbench.data import SyntheticSpec, generate_synthetic, write_embeddings
from perfbench.spans import Tracer

SETUP_INCOMPLETE = 3
STREAM_FUNCTIONS = (("data", "generate_synthetic"), ("data", "load_embeddings"))


def _modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "arcbench" or name.startswith("arcbench.")]


def patch(layer: str, name: str, make_wrapper) -> None:
    """Rebind every module-level name that refers to arcbench.<layer>.<name>."""
    original = getattr(sys.modules[f"arcbench.{layer}"], name)
    wrapper = functools.wraps(original)(make_wrapper(original))
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _exit_when_ready(original):
    def wrapper(*args, **kwargs):
        original(*args, **kwargs)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)
    return wrapper


class Instruments:
    """Span wrappers for each traced function, plus the counts they take."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.batch_ns: list[int] = []

    def span(self, label: str, after=None):
        """Wrapper factory: a span around the call. ``after(arguments,
        result)``, if given, takes counts outside the span."""
        tracer = self.tracer

        def make(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                index = tracer.begin(label)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                if after is not None:
                    after(signature.bind(*args, **kwargs).arguments, result)
                return result
            return wrapper
        return make

    def arc_evaluate(self, original):
        tracer = self.tracer
        batch_ns = self.batch_ns
        counts = self.counts

        def timed(batches):
            # the time from handing out batch i to the request for batch i+1
            # is the online loop's latency for batch i
            for batch in batches:
                start = time.perf_counter_ns()
                yield batch
                batch_ns.append(time.perf_counter_ns() - start)

        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["batches"] = timed(bound.arguments["batches"])
            index = tracer.begin("arc.arc_evaluate")
            try:
                result = original(*bound.args, **bound.kwargs)
            finally:
                tracer.end(index)
            counts["arc.retention.updates"] += result.retention_updates
            counts["arc.retention.skipped"] += sum("skipped" in w for w in result.warnings)
            counts["arc.samples"] += len(result.records)
            for rec in result.records:
                counts["otd." + rec.decision.value] += 1
                if rec.decision.value == "past_misclassified" and rec.final_class != rec.initial_class:
                    counts["arc.correction.changed"] += 1
            return result
        return wrapper

    def install(self) -> None:
        counts = self.counts

        def after_load(arguments, stream):
            counts["data.bytes_read"] += os.path.getsize(arguments["path"])
            counts["data.records"] += sum(len(d) for d in stream.train + stream.test)

        def after_forward(arguments, _):
            x, head = arguments["x"], arguments["head"]
            n = x.shape[0] if x.ndim == 2 else 1
            elements = n * head.num_classes * head.dim
            counts["core.forward.flops"] += 2 * elements
            counts["core.forward.temp_bytes_max"] = max(
                counts["core.forward.temp_bytes_max"], 8 * elements)

        def after_fit(arguments, _):
            n, cfg = len(arguments["features"]), arguments["cfg"]
            counts["core.fit_task.sgd_steps"] += cfg.epochs * -(-n // cfg.batch_size)

        def after_render(arguments, _):
            counts["cli.rows"] += len(arguments["rows"])

        def after_write(arguments, _):
            counts["cli.bundle_bytes"] += sum(
                len(text.encode("utf-8")) for text in arguments["files"].values())

        patch("data", "generate_synthetic", self.span("data.generate_synthetic"))
        patch("data", "load_embeddings", self.span("data.load_embeddings", after_load))
        patch("core", "forward", self.span("core.forward", after_forward))
        patch("core", "fit_task", self.span("core.fit_task", after_fit))
        patch("otd", "classify_sample", self.span("otd.classify_sample"))
        patch("arc", "arc_evaluate", self.arc_evaluate)
        patch("arc", "adaptive_retention", self.span("arc.retention"))
        patch("arc", "adaptive_correction", self.span("arc.correction"))
        for name in ("run_stream", "train_sequence", "otd_validation",
                     "linear_probe_experiment", "ablation_grid"):
            patch("harness", name, self.span(f"harness.{name}"))
        patch("cli", "render_csv", self.span("cli.render_csv", after_render))
        patch("cli", "write_bundle", self.span("cli.write_bundle", after_write))
        patch("cli", "main", self.span("cli.main"))


def prepare(info_path: str, emb_path: str | None = None, seed: str = "0",
            spec_json: str = "{}") -> None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_text = "unknown"
    info = {"numpy": np.__version__, "blas": blas_text, "inputs_sha256": {}}
    if emb_path is not None:
        spec = SyntheticSpec(**json.loads(spec_json), seed=int(seed))
        write_embeddings(generate_synthetic(spec), emb_path)
        digest = hashlib.sha256()
        with open(emb_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        info["inputs_sha256"][os.path.basename(emb_path)] = digest.hexdigest()
    with open(info_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "prepare":
        prepare(*rest)
        return 0
    split = rest.index("--")
    own, cli_args = rest[:split], rest[split + 1:]
    if mode == "setup":
        for layer, name in STREAM_FUNCTIONS:
            patch(layer, name, _exit_when_ready)
        arcbench.cli.main(cli_args)
        print("setup: the CLI returned before building a stream", file=sys.stderr)
        return SETUP_INCOMPLETE
    if mode == "trace":
        spans_path, run_id = own
        instruments = Instruments(Tracer(run_id))
        instruments.install()
        main_start_ns = time.perf_counter_ns()
        status = arcbench.cli.main(cli_args)
        instruments.tracer.dump(
            spans_path,
            main_start_ns=main_start_ns,
            counts=dict(instruments.counts),
            batch_ns=instruments.batch_ns,
        )
        return status
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
