"""Golden sha256 of every CSV in four default report bundles.

The manifest pins the exact bytes of the default bundles, so a refactor that
claims "same numbers" is checked by this test rather than by hand. The
einsum and BLAS reduction order may depend on the numpy build and the SIMD
targets it dispatches to, so the manifest is keyed by both; on another key
the test skips and names the difference. A change meant to move the numbers
regenerates the manifest and states the change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from arcbench.cli import main

MANIFEST = os.path.join(os.path.dirname(__file__), "golden_hashes.json")

COMMANDS = {
    "run": ["run", "--run.seeds", "0"],
    "ablate-raw-w": ["ablate", "--ablate.losses", "both", "--ablate.temperatures", "on,off",
                     "--ablate.w_modes", "raw", "--ablate.betas", "0.5",
                     "--ablate.gammas", "0.9"],
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
            "simd": [*umath.__cpu_baseline__, *dispatched]}


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


def test_default_bundles_match_golden_hashes(tmp_path):
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    key = platform_key()
    if manifest["key"] != key:
        diffs = [f"{k}: manifest {manifest['key'].get(k)!r}, here {key[k]!r}"
                 for k in key if manifest["key"].get(k) != key[k]]
        pytest.skip("golden hashes were recorded on another platform: " + "; ".join(diffs))
    got = bundle_digests(str(tmp_path))
    assert sorted(got) == sorted(manifest["sha256"])
    for name, files in manifest["sha256"].items():
        assert got[name] == files, f"{name}: CSV bytes differ from the golden manifest"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        manifest = {"key": platform_key(), "sha256": bundle_digests(workdir)}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
