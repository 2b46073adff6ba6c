"""Test helpers that fix which process evaluates each stage of a StageMap."""

import os
import time

from arcbench.harness import StageMap


def late_claims(monkeypatch):
    """Make the calling process claim no stage after stage 1 until the training
    child has claimed it, so the child evaluates stages n, ..., 2."""
    parent = os.getpid()
    claim = StageMap._claim

    def late_claim(self, t):
        deadline = time.monotonic() + 60
        while (os.getpid() == parent and t > 1 and not self._claims[t - 1]
               and time.monotonic() < deadline):
            time.sleep(0.001)
        return claim(self, t)

    monkeypatch.setattr(StageMap, "_claim", late_claim)


def log_stages(monkeypatch, path):
    """Append "pid stage" to path each time any process runs a stage's work;
    returns a function that reads the (pid, stage) pairs logged so far."""
    init = StageMap.__init__

    def logged_init(self, stream, train_cfg, seed, work):
        def logged(t, head):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {t}\n")
            return work(t, head)

        init(self, stream, train_cfg, seed, logged)

    monkeypatch.setattr(StageMap, "__init__", logged_init)
    return lambda: [tuple(map(int, line.split()))
                    for line in path.read_text(encoding="utf-8").splitlines()]
