"""Cache content checksums and corruption quarantine."""

import io
import zipfile
import zlib

import numpy as np
import pytest

from repro import cache as cache_module
from repro.cache import (
    CHECKSUM_KEY,
    add_corruption_listener,
    memoize_arrays,
    remove_corruption_listener,
)


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    return tmp_path


def _entry(cache_env):
    spec = {"kind": "cachetest", "n": 4}
    arrays = memoize_arrays(spec, lambda: {"x": np.arange(4.0), "y": np.ones((2, 2))})
    (path,) = cache_env.glob("cachetest-*.npz")
    return spec, arrays, path


def test_entries_carry_content_checksum(cache_env):
    _, _, path = _entry(cache_env)
    with np.load(path) as archive:
        assert CHECKSUM_KEY in archive.files
        checksum = str(archive[CHECKSUM_KEY])
    assert len(checksum) == 64  # sha256 hex


def test_checksum_verified_on_load(cache_env):
    spec, original, path = _entry(cache_env)
    loaded = memoize_arrays(spec, lambda: pytest.fail("should load from cache"))
    np.testing.assert_array_equal(loaded["x"], original["x"])
    assert CHECKSUM_KEY not in loaded  # internal key never leaks to callers


def test_bit_rot_quarantines_and_rebuilds(cache_env):
    spec, original, path = _entry(cache_env)
    # Valid zip, tampered content: rewrite one array, keep the stale checksum.
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["x"] = arrays["x"] + 1.0
    np.savez_compressed(path, **arrays)

    seen = []
    listener = add_corruption_listener(lambda p, reason: seen.append((p, reason)))
    try:
        rebuilt = memoize_arrays(spec, lambda: {"x": np.arange(4.0), "y": np.ones((2, 2))})
    finally:
        remove_corruption_listener(listener)

    np.testing.assert_array_equal(rebuilt["x"], original["x"])
    assert path.exists()  # rebuilt in place
    quarantined = list(cache_env.glob("*.npz.corrupt"))
    assert len(quarantined) == 1
    assert seen == [(quarantined[0], "content checksum mismatch")]


def test_unreadable_archive_quarantined(cache_env):
    spec, _, path = _entry(cache_env)
    path.write_bytes(b"not a zip archive at all")

    seen = []
    listener = add_corruption_listener(lambda p, reason: seen.append(reason))
    try:
        rebuilt = memoize_arrays(spec, lambda: {"x": np.arange(4.0), "y": np.ones((2, 2))})
    finally:
        remove_corruption_listener(listener)

    assert rebuilt["x"].sum() == 6.0
    assert len(list(cache_env.glob("*.npz.corrupt"))) == 1
    assert len(seen) == 1 and seen[0].startswith("unreadable archive")


def test_quarantined_bytes_preserved(cache_env):
    spec, _, path = _entry(cache_env)
    path.write_bytes(b"forensic evidence")
    memoize_arrays(spec, lambda: {"x": np.arange(4.0), "y": np.ones((2, 2))})
    (quarantined,) = cache_env.glob("*.npz.corrupt")
    assert quarantined.read_bytes() == b"forensic evidence"


def test_legacy_entry_without_checksum_loads_unchanged(cache_env):
    spec = {"kind": "cachetest", "n": 9}
    # Write a pre-checksum entry directly at the path memoize_arrays uses.
    from repro.cache import cache_key

    path = cache_env / f"cachetest-{cache_key(spec)}.npz"
    np.savez_compressed(path, x=np.arange(9.0))

    loaded = memoize_arrays(spec, lambda: pytest.fail("legacy entry must be served"))
    np.testing.assert_array_equal(loaded["x"], np.arange(9.0))
    assert not list(cache_env.glob("*.corrupt"))


def _flip(data: bytes, offset: int) -> bytes:
    flipped = bytearray(data)
    flipped[offset] ^= 0xFF
    return bytes(flipped)


def _raw_load(data: bytes) -> None:
    with np.load(io.BytesIO(data)) as archive:
        for key in archive.files:
            archive[key]


def test_fresh_entries_are_stored_not_deflated(cache_env):
    _, _, path = _entry(cache_env)
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    assert {info.filename for info in infos} == {"x.npy", "y.npy", f"{CHECKSUM_KEY}.npy"}
    assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)


def test_flipped_payload_byte_in_stored_entry_quarantined(cache_env):
    spec, _, path = _entry(cache_env)
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("x.npy")
    data = path.read_bytes()
    # Local file header: 30 fixed bytes, then the name and extra field.
    # The member's last byte is the last byte of x's float payload.
    name_len, extra_len = (int.from_bytes(data[at:at + 2], "little") for at in (26, 28))
    start = info.header_offset + 30 + name_len + extra_len
    path.write_bytes(_flip(data, start + info.compress_size - 1))

    seen = []
    listener = add_corruption_listener(lambda p, reason: seen.append(reason))
    try:
        assert cache_module._load_arrays(path) is None
    finally:
        remove_corruption_listener(listener)
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").exists()
    # zipfile's CRC-32 check trips before the content checksum is compared.
    assert seen == ["unreadable archive: BadZipFile: Bad CRC-32 for file 'x.npy'"]
    rebuilt = memoize_arrays(spec, lambda: {"x": np.arange(4.0), "y": np.ones((2, 2))})
    np.testing.assert_array_equal(rebuilt["x"], np.arange(4.0))


def test_zlib_error_in_deflated_entry_quarantined(cache_env):
    """A deflated entry (older caches keep them) whose flipped byte breaks
    the deflate stream fails inside zlib, before any checksum compare."""
    from repro.cache import cache_key

    arrays = {"x": np.tile(np.arange(64.0), 8), "y": np.ones((4, 4))}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays, **{CHECKSUM_KEY: cache_module._content_checksum(arrays)})
    data = buffer.getvalue()
    for offset in range(len(data)):
        corrupt = _flip(data, offset)
        try:
            _raw_load(corrupt)
        except zlib.error:
            break
        except Exception:
            continue
    else:
        pytest.fail("no single-byte flip of the deflated entry raises zlib.error")

    spec = {"kind": "cachetest", "n": 64}
    path = cache_env / f"cachetest-{cache_key(spec)}.npz"
    path.write_bytes(corrupt)
    seen = []
    listener = add_corruption_listener(lambda p, reason: seen.append(reason))
    try:
        assert cache_module._load_arrays(path) is None
    finally:
        remove_corruption_listener(listener)
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").read_bytes() == corrupt
    assert len(seen) == 1 and seen[0].startswith("unreadable archive: error:")


def test_reserved_checksum_name_rejected(cache_env):
    with pytest.raises(ValueError, match="reserved"):
        memoize_arrays({"kind": "cachetest", "n": 5}, lambda: {CHECKSUM_KEY: np.zeros(1)})


def test_listener_removal_is_idempotent():
    listener = lambda p, r: None  # noqa: E731
    remove_corruption_listener(listener)  # never registered: no error
    add_corruption_listener(listener)
    remove_corruption_listener(listener)
    assert listener not in cache_module._corruption_listeners
