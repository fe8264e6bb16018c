"""On-disk memoisation for expensive artifacts (datasets, trained models).

Training even the reduced CNNs takes minutes on the single-core substrate,
so datasets, model weights and adversarial-example pools are cached under
``$REPRO_CACHE`` (default ``<repo>/.artifacts``) keyed by a SHA-256 of their
construction parameters.  Deleting the directory forces regeneration.

Every entry embeds a content checksum (under the reserved ``__checksum__``
key) computed over its arrays' names, shapes, dtypes and bytes.  A corrupt
archive — truncated write, unreadable zip, or a checksum mismatch from bit
rot — is treated as a cache *miss*: the damaged file is **quarantined**
(renamed to ``<name>.corrupt`` for post-mortems, never silently destroyed),
the event is reported to any registered corruption listeners (the resilient
runner journals it to its failure ledger), and the artifact is rebuilt.
Entries written before checksums existed carry no ``__checksum__`` key and
load unchanged.  Entries are written stored, not deflated: the float
payloads compress by ~1.1x, and inflating them was most of the time an
evaluation process spent loading its entries.  Deflated entries from older
caches still load.  Writes go through a per-process temporary file followed by
an atomic ``os.replace``, so concurrent runs sharing a cache directory
cannot clobber each other's partial writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
import zipfile
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "cache_dir",
    "cache_key",
    "memoize_arrays",
    "weights_fingerprint",
    "add_corruption_listener",
    "remove_corruption_listener",
]

CHECKSUM_KEY = "__checksum__"

# Callbacks invoked as cb(path, reason) when an entry is quarantined;
# the resilient runner registers one to journal cache corruption.
_corruption_listeners: list[Callable[[Path, str], None]] = []


def add_corruption_listener(listener: Callable[[Path, str], None]) -> Callable[[Path, str], None]:
    """Register a ``(quarantined_path, reason)`` callback; returns it."""
    _corruption_listeners.append(listener)
    return listener


def remove_corruption_listener(listener: Callable[[Path, str], None]) -> None:
    """Unregister a corruption listener (missing listeners are ignored)."""
    try:
        _corruption_listeners.remove(listener)
    except ValueError:
        pass


def cache_dir() -> Path:
    """Return the artifact cache directory, creating it if needed."""
    root = os.environ.get("REPRO_CACHE")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[2] / ".artifacts"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _canonical(value):
    """Reduce a spec value to plain JSON types; refuse anything lossy.

    ``json.dumps(..., default=str)`` silently stringified whatever it did
    not understand — two distinct specs (a dtype object vs. its name, an
    exotic object whose ``repr`` embeds its address) could collide on, or
    spuriously split, a cache key.  NumPy scalars and dtypes are the
    legitimate non-JSON inhabitants of specs, so convert exactly those and
    raise :class:`TypeError` for everything else.
    """
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, np.generic):  # np.float64(0.3), np.int64(7), ...
        return value.item()
    if isinstance(value, np.dtype):
        return value.name
    if isinstance(value, type) and issubclass(value, np.generic):  # np.float32 the type
        return np.dtype(value).name
    raise TypeError(
        f"cache spec value {value!r} of type {type(value).__name__} is not "
        "canonicalisable; pass plain JSON types, NumPy scalars or dtypes"
    )


def cache_key(spec: dict) -> str:
    """Stable hash of a parameter dict (JSON types, NumPy scalars, dtypes).

    Identical to the JSON serialisation for pure-JSON specs (existing cache
    entries keep their keys); NumPy values are canonicalised explicitly and
    anything else raises instead of being silently stringified.
    """
    canonical = json.dumps(_canonical(spec), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def weights_fingerprint(network) -> str:
    """Short content hash of a network's parameters (float64 canonical form).

    Artifacts *derived from* a trained model — adversarial-example pools,
    calibrated radii, detectors — embed this in their cache keys so a
    retrained or differently-trained model can never be silently paired
    with stale derived artifacts.

    Each parameter's shape and storage dtype are mixed into the digest
    alongside its bytes: hashing the concatenated byte stream alone lets
    two different networks that merely split the same values differently
    (e.g. a (2, 6) weight vs. a (3, 4) one, or a transposed layout)
    collide.  The ``v2`` prefix bumps every fingerprint so artifacts
    derived under the collision-prone scheme are rebuilt, never reused.
    """
    digest = hashlib.sha256(b"weights-fingerprint-v2")
    for p in network.parameters():
        arr = np.ascontiguousarray(p.data, dtype=np.float64)
        digest.update(repr((arr.shape, str(p.data.dtype))).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def _content_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the arrays' names, shapes, dtypes and bytes.

    Iterated in sorted name order so the digest is independent of dict
    insertion order; shape and dtype are mixed in so two entries whose
    concatenated bytes happen to coincide still get distinct digests.
    """
    digest = hashlib.sha256(b"cache-content-v1")
    for name in sorted(arrays):
        if name == CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(arrays[name])
        digest.update(repr((name, arr.shape, str(arr.dtype))).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _quarantine(path: Path, reason: str) -> None:
    """Move a damaged entry aside as ``<name>.corrupt`` and notify listeners.

    The bad bytes are preserved for post-mortems instead of silently
    deleted; the quarantined name no longer matches ``*.npz`` so every
    lookup treats the slot as a clean miss.
    """
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        # A concurrent process already moved or removed it; nothing to keep.
        path.unlink(missing_ok=True)
    for listener in list(_corruption_listeners):
        listener(target, reason)


def _load_arrays(path: Path) -> dict[str, np.ndarray] | None:
    """Load and verify an ``.npz`` entry; quarantine and return ``None`` if bad.

    Entries written before checksums existed carry no ``__checksum__`` key
    and are served as-is; checksummed entries are re-digested on every load.
    A flipped byte in a deflated entry can fail inside zlib (``zlib.error``)
    before any checksum is compared, so that error quarantines too.
    """
    try:
        # Own the handle: np.load(path) opens the file itself, and when the
        # zip header is corrupt it raises *before* the context manager could
        # take ownership, leaking the descriptor to the GC.
        with open(path, "rb") as handle:
            with np.load(handle) as archive:
                arrays = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, zlib.error, OSError, KeyError, ValueError, EOFError) as exc:
        _quarantine(path, f"unreadable archive: {type(exc).__name__}: {exc}")
        return None
    recorded = arrays.pop(CHECKSUM_KEY, None)
    if recorded is not None and str(recorded) != _content_checksum(arrays):
        _quarantine(path, "content checksum mismatch")
        return None
    return arrays


def memoize_arrays(spec: dict, build: Callable[[], dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Return ``build()``'s dict of arrays, cached on disk under ``spec``.

    The spec's ``kind`` entry (plus hash) names the file, which keeps the
    cache directory human-navigable.
    """
    kind = spec.get("kind", "artifact")
    path = cache_dir() / f"{kind}-{cache_key(spec)}.npz"
    if path.exists():
        arrays = _load_arrays(path)
        if arrays is not None:
            return arrays
        # Corrupt entry: _load_arrays quarantined it; rebuild below.
    arrays = build()
    if CHECKSUM_KEY in arrays:
        raise ValueError(f"array name {CHECKSUM_KEY!r} is reserved for the content checksum")
    # pid alone is not unique: two threads of one process racing on the
    # same key would write the same tmp file and clobber each other before
    # either os.replace lands.  A uuid suffix gives every writer its own.
    tmp = path.with_suffix(f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}.npz")
    try:
        np.savez(tmp, **arrays, **{CHECKSUM_KEY: _content_checksum(arrays)})
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return arrays
