import hashlib
import json
import os
import pickle
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdc import features_io
from fsdc.errors import DataError, FormatError, SpecError
from fsdc.features_io import (Dataset, SplitManifest, SyntheticSpec,
                              generate_synthetic, load_dataset, load_split,
                              save_dataset, save_split)
from skewness import sample_skewness
from synthetic_moments import abs_power_moments, feature_moments


def small_dataset():
    return Dataset([1, 1, 3], [[0.5, 0.25], [0.5, 0.75], [2.0, 4.0]])


# ---------------------------------------------------------------------- types

def test_dataset_basics():
    ds = small_dataset()
    assert ds.count == 3
    assert ds.dim == 2
    assert ds.classes() == [1, 3]
    assert list(ds.rows_for(1)) == [0, 1]
    assert ds.values.dtype == np.float32


def test_dataset_rejects_empty():
    with pytest.raises(SpecError):
        Dataset(np.empty(0, dtype=np.int64), np.empty((0, 4)))


def test_dataset_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="must be finite"):
            Dataset([0, 1], [[1.0, 2.0], [bad, 3.0]])
        # values are checked a block of rows at a time; the last row of
        # 2 MB of values lies beyond the first block
        values = np.zeros((2048, 256), dtype=np.float32)
        values[-1, -1] = bad
        with pytest.raises(DataError, match="must be finite"):
            Dataset(np.zeros(2048, dtype=np.uint32), values)


@pytest.mark.parametrize("big", [1e39, -1e39, 1e300])
def test_dataset_rejects_values_beyond_float32(big):
    # finite in float64 but not in float32, the storage precision: an
    # FsdcError, with no numpy overflow warning on the way
    with pytest.raises(DataError, match="must be finite in float32"):
        Dataset([0], [[big, 1.0]])


def test_dataset_construction_holds_no_per_value_mask():
    # a finiteness check over the whole array at once holds one byte per
    # value, a quarter of the values' bytes
    ids = np.arange(8000, dtype=np.uint32) % 10
    values = np.ones((8000, 256), dtype=np.float32)
    tracemalloc.start()
    try:
        ds = Dataset(ids, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.values is values
    assert peak < 0.05 * values.nbytes, f"peak {peak / values.nbytes:.3f}x"


def test_dataset_keeps_arrays_in_storage_dtypes():
    # uint32 ids and contiguous float32 values are the storage form; the
    # dataset holds them as given rather than a copy of each
    ids = np.array([0, 1, 1], dtype=np.uint32)
    values = np.ones((3, 2), dtype=np.float32)
    ds = Dataset(ids, values)
    assert ds.class_ids is ids and ds.values is values


def test_dataset_rejects_negative_class_id():
    with pytest.raises(SpecError):
        Dataset([-1], [[1.0]])


def test_dataset_rejects_class_id_beyond_u32():
    # ids are stored as u32; 2**32 + 1 must not wrap around to class 1
    with pytest.raises(SpecError):
        Dataset([2 ** 32 + 1, 1], [[1.0], [2.0]])
    with pytest.raises(SpecError):
        Dataset(np.array([2 ** 32], dtype=np.uint64), [[1.0]])
    assert Dataset([2 ** 32 - 1], [[1.0]]).classes() == [2 ** 32 - 1]


def test_dataset_rejects_ragged_via_object_array():
    with pytest.raises(DataError, match="values must be a 2-D array"):
        Dataset([0, 1], np.array([[1.0], [1.0, 2.0]], dtype=object))


# --------------------------------------------------------------- binary codec

def test_binary_round_trip_is_bit_exact(tmp_path):
    ds = small_dataset()
    p = tmp_path / "d.fsdc"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert np.array_equal(back.class_ids, ds.class_ids)
    assert back.values.tobytes() == ds.values.tobytes()


def test_binary_file_size_arithmetic(tmp_path):
    dim = 640
    ds = Dataset([0, 1], np.ones((2, dim), dtype=np.float32))
    p = tmp_path / "wide.fsdc"
    save_dataset(ds, p)
    assert p.stat().st_size == 16 + 2 * (4 + 4 * dim)


def test_bad_magic_is_rejected(tmp_path):
    p = tmp_path / "bad.fsdc"
    p.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(FormatError):
        load_dataset(p)


def test_bad_version_is_rejected(tmp_path):
    p = tmp_path / "bad.fsdc"
    p.write_bytes(struct.pack("<4sIII", b"FSDC", 2, 1, 1) + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_dataset(p)


def test_truncated_payload_is_rejected(tmp_path):
    ds = small_dataset()
    p = tmp_path / "d.fsdc"
    save_dataset(ds, p)
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(FormatError):
        load_dataset(p)


def test_zero_record_header_is_rejected(tmp_path):
    p = tmp_path / "empty.fsdc"
    p.write_bytes(struct.pack("<4sIII", b"FSDC", 1, 0, 4))
    with pytest.raises(FormatError):
        load_dataset(p)


@pytest.mark.parametrize("header", [
    b"FSDC\x01\x00\x00",                              # short header
    struct.pack("<4sIII", b"FSDC", 1, 3, 0),            # zero dimension
], ids=["short_header", "zero_dim"])
def test_malformed_header_is_rejected(tmp_path, header):
    p = tmp_path / "bad.fsdc"
    p.write_bytes(header)
    with pytest.raises(FormatError):
        load_dataset(p)


def _through_pipe(tmp_path, data: bytes):
    # a FIFO has no size to check up front, so the loader meets truncation
    # and trailing bytes while it reads
    fifo = tmp_path / "pipe.fsdc"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return load_dataset(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


@pytest.mark.parametrize("through_pipe", [False, True], ids=["file", "pipe"])
def test_records_are_decoded_in_chunks(tmp_path, monkeypatch, through_pipe):
    # 7 records of 3 per chunk: two full chunks and a partial one
    rng = np.random.default_rng(8)
    ds = Dataset(rng.integers(0, 5, size=7),
                 rng.normal(size=(7, 6)).astype(np.float32))
    save_dataset(ds, tmp_path / "d.fsdc")
    data = (tmp_path / "d.fsdc").read_bytes()
    monkeypatch.setattr(features_io, "_CHUNK_BYTES", 3 * (4 + 4 * 6))

    def load(payload):
        if through_pipe:
            return _through_pipe(tmp_path, payload)
        p = tmp_path / "copy.fsdc"
        p.write_bytes(payload)
        return load_dataset(p)

    back = load(data)
    assert np.array_equal(back.class_ids, ds.class_ids)
    assert back.values.tobytes() == ds.values.tobytes()
    # the values are a view of the file's (or the pipe's) records
    with pytest.raises(ValueError, match="read-only"):
        back.values[0, 0] = 1.0
    for payload in (data[:-3], data[:60], data + b"\x00"):
        if through_pipe:
            os.unlink(tmp_path / "pipe.fsdc")
        with pytest.raises(FormatError, match="expected 212 bytes"):
            load(payload)


def test_pipe_that_overstates_its_records_is_refused(tmp_path):
    # 2**32 - 1 records of 2**24 values: the ids alone would take 16 GiB.
    # A pipe's size is unknown, so what is held grows with what arrives.
    header = struct.pack("<4sIII", b"FSDC", 1, 2 ** 32 - 1, 2 ** 24)
    with pytest.raises(FormatError, match="got 4112$"):
        _through_pipe(tmp_path, header + b"\x00" * 4096)


def test_saving_over_a_loaded_file_keeps_its_values(tmp_path):
    # save_dataset renames a new file over the old one, whose pages the
    # loaded dataset still maps
    ds = Dataset([0, 1, 1], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    p = tmp_path / "d.fsdc"
    save_dataset(ds, p)
    back = load_dataset(p)
    save_dataset(Dataset([2, 2, 3], ds.values + 10), p)
    assert back.values.tobytes() == ds.values.tobytes()
    assert np.array_equal(back.class_ids, ds.class_ids)
    assert load_dataset(p).values[0, 0] == 11.0


def test_loaded_dataset_pickles_as_one_in_memory(tmp_path):
    # worker processes receive the dataset pickled under spawn and
    # forkserver; a mapping cannot be pickled
    rng = np.random.default_rng(5)
    ds = Dataset(rng.integers(0, 5, size=30),
                 rng.normal(size=(30, 6)).astype(np.float32))
    save_dataset(ds, tmp_path / "d.fsdc")
    for source in (ds, load_dataset(tmp_path / "d.fsdc")):
        copy = pickle.loads(pickle.dumps(source))
        assert type(copy) is Dataset
        assert copy.class_ids.dtype == np.uint32
        assert np.array_equal(copy.class_ids, ds.class_ids)
        assert copy.values.flags.c_contiguous
        assert copy.values.tobytes() == ds.values.tobytes()


def test_rows_reads_float64_copies_and_releases_the_file(tmp_path,
                                                        monkeypatch):
    # an episode's reads: a new float64 array of the records asked for,
    # after which a loaded dataset's mapped pages are released; an empty
    # index reads (0, dim) and releases nothing
    rng = np.random.default_rng(8)
    ds = Dataset(rng.integers(0, 4, size=40),
                 rng.normal(size=(40, 5)).astype(np.float32))
    save_dataset(ds, tmp_path / "d.fsdc")
    released = []
    release = Dataset._release
    monkeypatch.setattr(Dataset, "_release", lambda self: (
        released.append(self), release(self)))
    idx = np.array([31, 2, 17])
    for source in (ds, load_dataset(tmp_path / "d.fsdc")):
        released.clear()
        rows = source._rows(idx)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert np.array_equal(rows, ds.values[idx].astype(np.float64))
        assert released == [source]
        released.clear()
        none = source._rows(np.array([], dtype=np.intp))
        assert none.shape == (0, 5) and none.dtype == np.float64
        assert released == []


def test_loading_holds_no_copy_of_the_file(tmp_path):
    # the values stay in the file, mapped: loading holds the class ids
    # (0.004x the file, twice while they are joined), one chunk's buffer
    # and its finiteness mask, 0.17x in all.  Decoding into arrays held
    # the whole file besides (1.16x), and a decode of the whole file the
    # raw bytes and a copy of each field (2.25x)
    rng = np.random.default_rng(9)
    ds = Dataset(rng.integers(0, 10, size=8000),
                 rng.normal(size=(8000, 256)).astype(np.float32))
    p = tmp_path / "wide.fsdc"
    save_dataset(ds, p)
    del ds
    tracemalloc.start()
    try:
        back = load_dataset(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.count == 8000
    size = p.stat().st_size
    assert peak < 0.25 * size, f"peak {peak / size:.3f}x the file"


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_binary_round_trip_random(tmp_path_factory, n, dim, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 50, size=n)
    vals = rng.normal(size=(n, dim)).astype(np.float32)
    ds = Dataset(ids, vals)
    p = tmp_path_factory.mktemp("rt") / "d.fsdc"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert back.values.tobytes() == ds.values.tobytes()
    assert np.array_equal(back.class_ids, ds.class_ids)


def test_csv_text_is_not_a_dataset(tmp_path):
    # FSDC is the one dataset format: a CSV file fails on its magic
    p = tmp_path / "d.csv"
    p.write_text("1,0.5,0.25\n1,0.5,0.75\n")
    with pytest.raises(FormatError, match="bad magic"):
        load_dataset(p)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    # as open() would: 0666 less the umask, not mkstemp's owner-only 0600
    old = os.umask(umask)
    try:
        save_split(SplitManifest(base=[0, 1], novel=[2]), tmp_path / "s.json")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "s.json").st_mode) == mode
    assert os.listdir(tmp_path) == ["s.json"]


# ------------------------------------------------------------ split manifests

def test_split_round_trip(tmp_path):
    m = SplitManifest(base=[0, 1, 2], val=[3], novel=[4, 5])
    p = tmp_path / "split.json"
    save_split(m, p)
    back = load_split(p)
    assert back.base_classes == frozenset({0, 1, 2})
    assert back.val_classes == frozenset({3})
    assert back.novel_classes == frozenset({4, 5})


def test_split_roles_must_be_disjoint():
    with pytest.raises(SpecError):
        SplitManifest(base=[0, 1], novel=[1])


def test_split_manifest_schema_errors(tmp_path):
    p = tmp_path / "split.json"
    p.write_text(json.dumps({"base": [0], "novel": [1]}))
    with pytest.raises(FormatError):
        load_split(p)
    p.write_text(json.dumps({"base": [0], "val": [], "novel": [1], "x": []}))
    with pytest.raises(FormatError):
        load_split(p)
    p.write_text("not json")
    with pytest.raises(FormatError):
        load_split(p)


def test_split_rejects_bad_class_ids(tmp_path):
    p = tmp_path / "split.json"
    p.write_text(json.dumps({"base": [True, 2], "val": [], "novel": [3]}))
    with pytest.raises(FormatError):
        load_split(p)
    # a dataset holds u32 class ids, so a larger one could never be found
    p.write_text(json.dumps({"base": [2 ** 32 + 1], "val": [], "novel": []}))
    with pytest.raises(FormatError, match=r"split manifest: .*\[0, 2\*\*32\)"):
        load_split(p)
    with pytest.raises(SpecError):
        SplitManifest(base=[-1])


# ------------------------------------------------------------- synthetic data

def test_synthetic_is_deterministic():
    spec = SyntheticSpec(num_classes=4, dim=6, samples_per_class=20,
                         group_size=2, seed=5)
    a, split_a, _ = generate_synthetic(spec)
    b, split_b, _ = generate_synthetic(spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert np.array_equal(a.class_ids, b.class_ids)
    assert split_a.to_payload() == split_b.to_payload()


def test_synthetic_world_bytes_are_pinned(tmp_path):
    # the acceptance world's files: a moved or added generator draw changes
    # them.  Their float32 values hide how the platform rounds the tails of
    # the normal draws (README, "Determinism")
    ds, split, _ = generate_synthetic(SyntheticSpec(25, 16, 200, seed=0))
    save_dataset(ds, tmp_path / "w.fsdc")
    save_split(split, tmp_path / "w.split.json")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("w.fsdc", "w.split.json")]
    assert digests == [
        "1945e7a75c10593684ef7bfed218cdceb55a5e9d6967bc6cb16310e7d4217fea",
        "6ea005e98ab6a3bdc8bd6818ea50a640cf9b387a42912d6d18b08c3a01748c47"]


def test_synthetic_split_layout():
    spec = SyntheticSpec(num_classes=25, dim=8, samples_per_class=3,
                         group_size=5, seed=1)
    _, split, _ = generate_synthetic(spec)
    assert split.novel_classes == frozenset({4, 9, 14, 19, 24})
    assert len(split.base_classes) == 20
    # a ragged last group still gives up its last class; a group of one
    # gives none
    for num_classes, novel in ((23, {4, 9, 14, 19, 22}),
                               (21, {4, 9, 14, 19})):
        _, split, _ = generate_synthetic(SyntheticSpec(
            num_classes=num_classes, dim=8, samples_per_class=3,
            group_size=5, seed=1))
        assert split.novel_classes == frozenset(novel)
        assert split.base_classes == frozenset(range(num_classes)) - novel


def test_synthetic_features_are_skewed():
    spec = SyntheticSpec(num_classes=1, dim=4, samples_per_class=10_000,
                         group_size=1, skew_power=2.0, seed=9)
    ds, _, _ = generate_synthetic(spec)
    skew = sample_skewness(ds.values[:, 0].astype(np.float64))
    assert skew > 0.5


def test_synthetic_truth_moments_match_empirical():
    spec = SyntheticSpec(num_classes=2, dim=5, samples_per_class=40_000,
                         group_size=2, seed=3)
    ds, _, latent_means = generate_synthetic(spec)
    assert latent_means.dtype == np.float64
    assert latent_means.shape == (2, 5)
    for cid in (0, 1):
        feats = ds.values[ds.rows_for(cid)].astype(np.float64)
        mean, var = feature_moments(latent_means[cid], spec.skew_power)
        n = feats.shape[0]
        # sample mean of each marginal is within 5 standard errors
        se = np.sqrt(var / n)
        assert np.all(np.abs(feats.mean(axis=0) - mean) < 5 * se)


def test_synthetic_quadrature_agrees_with_closed_form():
    u = np.array([0.3, 0.9, 1.5])
    m_closed, v_closed = abs_power_moments(u, 0.3, 2)
    m_quad, v_quad = abs_power_moments(u, 0.3, 2.0000001)
    assert np.allclose(m_closed, m_quad, rtol=1e-5)
    assert np.allclose(v_closed, v_quad, rtol=1e-4)


def test_synthetic_same_group_classes_are_closer():
    spec = SyntheticSpec(num_classes=4, dim=16, samples_per_class=2,
                         group_size=2, seed=11)
    _, _, m = generate_synthetic(spec)
    within = np.linalg.norm(m[0] - m[1])
    across = min(np.linalg.norm(m[0] - m[2]), np.linalg.norm(m[0] - m[3]))
    assert within < across


def test_synthetic_rejects_bad_spec():
    with pytest.raises(SpecError):
        SyntheticSpec(num_classes=2, dim=1, samples_per_class=5)
    with pytest.raises(SpecError):
        SyntheticSpec(num_classes=2, dim=4, samples_per_class=0)
    for power in (0.5, float("nan"), float("inf")):
        with pytest.raises(SpecError, match="skew_power"):
            SyntheticSpec(num_classes=2, dim=4, samples_per_class=5,
                          skew_power=power)
    with pytest.raises(SpecError):
        SyntheticSpec(num_classes=3, dim=4, samples_per_class=5, group_size=0)
