"""Test helpers that fix which process does each stage's work in map_stages."""

import os
import time

from arcbench import harness


def late_claims(monkeypatch):
    """Make the calling process claim no stage after stage 1 until the training
    child has claimed it, so the child does stages n, ..., 2."""
    parent = os.getpid()
    claim = harness._claim

    def late_claim(claims, t):
        deadline = time.monotonic() + 60
        while (os.getpid() == parent and t > 1 and not claims[t - 1]
               and time.monotonic() < deadline):
            time.sleep(0.001)
        return claim(claims, t)

    monkeypatch.setattr(harness, "_claim", late_claim)


def log_stages(monkeypatch, path):
    """Append "pid stage" to path each time any process runs a stage's work;
    returns a function that reads the (pid, stage) pairs logged so far."""
    map_stages = harness.map_stages

    def logged_map(stream, train_cfg, seed, work):
        def logged(t, head):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {t}\n")
            return work(t, head)

        return map_stages(stream, train_cfg, seed, logged)

    monkeypatch.setattr(harness, "map_stages", logged_map)
    return lambda: [tuple(map(int, line.split()))
                    for line in path.read_text(encoding="utf-8").splitlines()]
