"""Golden sha256 of every CSV in the default report bundles and of each demo's stdout.

The manifest pins the exact bytes of the default bundles and of what every
script in ``demos/`` prints, so a refactor that claims "same numbers" is
checked by this test rather than by hand. The einsum and BLAS reduction
order may depend on the numpy build, the SIMD targets it dispatches to, and
the BLAS and the kernel it picks for the CPU (OpenBLAS's core type: on an
AVX-512 CPU, ``OPENBLAS_CORETYPE=Haswell`` moves the trained heads' last
bits), so the manifest is keyed by all of them; on another key the test
skips and names the difference. Run as a script, it recomputes every digest and prints each
entry that moved, as old -> new, or "no entry changed"; it exits 1 when any
entry moved and leaves the manifest as it is:

    PYTHONPATH=src python tests/test_golden.py

A change meant to move the numbers regenerates the manifest with --write
(same report, exit 0) and states the change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import ast
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest

import arcbench
from arcbench.cli import blas_core, blas_name, main

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "golden_hashes.json")
SRC = os.path.join(HERE, os.pardir, "src")
DEMOS = os.path.join(HERE, os.pardir, "demos")
README = os.path.join(HERE, os.pardir, "README.md")
CONFIGS = os.path.abspath(os.path.join(HERE, os.pardir, "configs"))

COMMANDS = {
    "run": ["run", "--run.seeds", "0"],
    "run-two-seeds": ["run", "--run.seeds", "0,1"],
    "run-memory-based": ["run", "--config", os.path.join(CONFIGS, "memory_based.cfg")],
    "run-arc-last": ["run", "--arc.arc_last", "true"],
    "ablate-raw-w": ["ablate", "--ablate.losses", "both", "--ablate.temperatures", "on,off",
                     "--ablate.w_modes", "raw", "--ablate.betas", "0.5",
                     "--ablate.gammas", "0.9"],
    "ablate-groups": ["ablate", "--ablate.losses", "ce,both", "--ablate.betas", "0.6,0.9",
                      "--ablate.gammas", "0.7,1.0"],
    "validate-otd": ["validate-otd"],
    "probe": ["probe"],
}


def platform_key() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "simd": [*umath.__cpu_baseline__, *dispatched],
            "blas": blas_name(), "blas_core": blas_core()}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def bundle_digests(workdir: str) -> dict:
    """Run each command in-process; sha256 of every CSV it writes."""
    digests = {}
    for name, args in COMMANDS.items():
        out = os.path.join(workdir, name)
        if main([*args, "--run.output_dir", out]) != 0:
            raise RuntimeError(f"arcbench {' '.join(args)} failed")
        digests[name] = {file: _sha256(os.path.join(out, file))
                         for file in sorted(os.listdir(out)) if file.endswith(".csv")}
    return digests


def demo_digests() -> dict:
    """Run each demo script with PYTHONPATH=src; sha256 of its stdout."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    digests = {}
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".py"):
            out = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                                 capture_output=True, check=True).stdout
            digests[name] = hashlib.sha256(out).hexdigest()
    return digests


def golden_manifest() -> dict:
    """The manifest, or a skip naming each difference when it is for another platform."""
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    key = platform_key()
    if manifest["key"] != key:
        diffs = [f"{k}: manifest {manifest['key'].get(k)!r}, here {key[k]!r}"
                 for k in key if manifest["key"].get(k) != key[k]]
        pytest.skip("golden hashes were recorded on another platform: " + "; ".join(diffs))
    return manifest


def test_default_bundles_match_golden_hashes(tmp_path):
    manifest = golden_manifest()
    got = bundle_digests(str(tmp_path))
    assert sorted(got) == sorted(manifest["sha256"])
    for name, files in manifest["sha256"].items():
        assert got[name] == files, f"{name}: CSV bytes differ from the golden manifest"


def test_changed_entries_names_each_moved_digest():
    old = {"key": {"numpy": "1"}, "sha256": {"probe": {"probe.csv": "a"}, "run": {"m.csv": "b"}}}
    new = {"key": {"numpy": "1"}, "sha256": {"probe": {"probe.csv": "c"}, "run": {"m.csv": "b"}},
           "demos": {"01.py": "d"}}
    assert changed_entries(old, new) == ["demos/01.py: (absent) -> d",
                                         "sha256/probe/probe.csv: a -> c"]
    assert changed_entries(new, new) == []


def test_demo_output_matches_golden_hashes():
    manifest = golden_manifest()
    got = demo_digests()
    assert sorted(got) == sorted(manifest["demos"])
    for name, digest in manifest["demos"].items():
        assert got[name] == digest, f"{name}: stdout differs from the golden manifest"


def test_package_root_binds_what_readme_and_demos_import():
    """Read, not run, so it holds on any platform: every name that README's
    python blocks and the demos import from arcbench is bound at the package
    root, and the root binds no other public name but EmbeddingFormatError,
    which a library caller catches."""
    with open(README, encoding="utf-8") as fh:
        sources = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".py"):
            with open(os.path.join(DEMOS, name), encoding="utf-8") as fh:
                sources.append(fh.read())
    imported = {alias.name for source in sources for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "arcbench"
                for alias in node.names}
    bound = {name for name, value in vars(arcbench).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == imported | {"EmbeddingFormatError"}


def _leaves(tree: dict, prefix: str = "") -> dict:
    """Flatten nested dicts to {"a/b/c": leaf}."""
    flat = {}
    for name, value in tree.items():
        if isinstance(value, dict):
            flat.update(_leaves(value, f"{prefix}{name}/"))
        else:
            flat[f"{prefix}{name}"] = value
    return flat


def changed_entries(old: dict, new: dict) -> list[str]:
    """One "entry: old -> new" line per manifest entry that differs."""
    before, after = _leaves(old), _leaves(new)
    return [f"{name}: {before.get(name, '(absent)')} -> {after.get(name, '(absent)')}"
            for name in sorted(before.keys() | after.keys())
            if before.get(name) != after.get(name)]


def main_script(argv: list[str]) -> int:
    """Report each moved entry; with --write, also replace the manifest."""
    write = argv == ["--write"]
    if argv and not write:
        print("usage: python tests/test_golden.py [--write]", file=sys.stderr)
        return 2
    try:
        with open(MANIFEST, encoding="utf-8") as fh:
            previous = json.load(fh)
    except FileNotFoundError:
        previous = {}
    with tempfile.TemporaryDirectory() as workdir:
        manifest = {"key": platform_key(), "sha256": bundle_digests(workdir),
                    "demos": demo_digests()}
    changed = changed_entries(previous, manifest)
    print("\n".join(changed) or "no entry changed")
    if write:
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        print(f"wrote {MANIFEST}", file=sys.stderr)
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_script(sys.argv[1:]))
