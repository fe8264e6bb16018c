"""Shared provenance plumbing for the standalone throughput benchmarks.

A benchmark number without its context is unusable for regression gating:
the same script on a different git revision, NumPy build or input pool is
a different experiment.  Every standalone benchmark therefore attaches
:func:`bench_context` to its payload and persists it with
:func:`write_payload` as ``BENCH_<name>.json`` at the repo root — the
committed JSONs are the baseline the ROADMAP's bench-regression gate will
diff against.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

__all__ = ["REPO_ROOT", "bench_context", "dataset_fingerprint", "floor_gates", "write_payload"]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def dataset_fingerprint(x: np.ndarray) -> str:
    """Content hash of the exact example pool the benchmark timed."""
    arr = np.ascontiguousarray(x)
    digest = hashlib.sha1(arr.tobytes())
    digest.update(repr((arr.shape, str(arr.dtype))).encode())
    return digest.hexdigest()[:16]


def bench_context(**extra) -> dict:
    """Provenance block: toolchain versions, revision, run parameters.

    Keyword arguments (iterations, dataset fingerprints, …) are folded in
    verbatim so each benchmark records the knobs that shaped its numbers.
    """
    context = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    context.update(extra)
    return context


def floor_gates(results: dict, floors: dict[str, float]) -> dict:
    """Each absolute floor next to the value it gates.

    ``floors`` maps a dotted path into ``results`` (the name ``repro bench
    --compare`` gives the metric, e.g. ``"plan-batch.examples_per_sec"``) to
    the least value a full run accepts; ``margin`` is the measured value's
    relative distance above its floor.
    """
    gates = {}
    for name, floor in floors.items():
        measured = results
        for key in name.split("."):
            measured = measured[key]
        gates[name] = {
            "floor": floor,
            "measured": measured,
            "margin": measured / floor - 1.0,
            "holds": bool(measured >= floor),
        }
    return gates


def write_payload(name: str, payload: dict, out: Path | None = None) -> Path:
    """Write ``payload`` to ``BENCH_<name>.json`` (or ``out``), return the path."""
    path = out if out is not None else REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
