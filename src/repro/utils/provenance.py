"""Run provenance for benchmark documents: schema version + commit.

Every ``--json`` bench payload (``accel-bench``, ``zoo-bench``,
``faults-bench``, ``net-soak``) carries the same provenance header so the perf gate
and ``BENCH_history.jsonl`` can compare runs across commits:

* ``schema_version`` — bumped when a payload's shape changes
  incompatibly, so downstream tooling can refuse rather than misread;
* ``bench`` — which bench produced the document;
* ``commit`` — ``git describe --always --dirty`` of the working tree
  (``"unknown"`` outside a repository or without git installed);
* ``kernel`` — which batch kernel decoded: the compiled loop nest's
  compiler version, flags and source hash, or ``"numpy"`` on the
  fallback (see :mod:`repro.accel.native`), so no baseline is compared
  across kernels unnoticed.
"""

from __future__ import annotations

import os
import subprocess
from typing import Any, Dict

from repro.accel.native import kernel_info

__all__ = ["BENCH_SCHEMA_VERSION", "bench_meta", "git_commit"]

#: Version of the bench JSON payload shape (see docs/PERFORMANCE.md).
BENCH_SCHEMA_VERSION = 1


def git_commit(cwd: str = "") -> str:
    """``git describe --always --dirty`` of the tree, or ``"unknown"``.

    Never raises: provenance must not break a bench run on a machine
    without git or outside a checkout.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    text = out.stdout.decode("utf-8", "replace").strip()
    return text or "unknown"


def bench_meta(bench: str) -> Dict[str, Any]:
    """The provenance header for one bench document."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "commit": git_commit(),
        "kernel": kernel_info(),
    }
