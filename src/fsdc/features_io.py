"""Feature datasets: in-memory container, the FSDC file format, split
manifests, and a synthetic generator.

FSDC is the one dataset format.  Features extracted elsewhere come in as
``save_dataset(Dataset(class_ids, values), path)``.  Layout (little-endian
throughout)::

    magic   4 bytes  b"FSDC"
    version u32      currently 1
    count   u32      number of records
    dim     u32      feature dimension
    records count times:
        class_id u32
        values   dim * f32

Values are stored as float32.  Quantization to float32 happens once, at
dataset construction, so save followed by load is bit-exact.

A loaded regular file is mapped, not copied: the loaded dataset's values
are a read-only view of the file's records, and its pages are read on
demand from the page cache.  Every read, the statistics build's and each
episode's, copies the records it needs and then releases the whole
mapping, so between reads the process holds none of the file.  Such a
file must not be rewritten in place while a dataset loaded from it is in
use; :func:`save_dataset` replaces a file by renaming a new one over it,
so the mapping keeps the old contents.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import secrets
import stat
import struct
from dataclasses import dataclass
from typing import Final

import numpy as np

from .errors import DataError, FormatError, SpecError
from .rng import PortableRng, derive_key

_MAGIC: Final = b"FSDC"
_VERSION: Final = 1
_HEADER: Final = struct.Struct("<4sIII")
_MAX_CLASS_ID: Final = 2 ** 32 - 1   # class ids are stored as u32
_CHUNK_BYTES: Final = 1 << 20   # records are decoded through a buffer this big

_DOM_GROUP_DIR: Final = 0x47
_DOM_CLASS_OFFSET: Final = 0x4F
_DOM_SAMPLES: Final = 0x53


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and rename, so readers never
    observe a partial file."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".fsdc-tmp-{secrets.token_hex(8)}")
    # open() gives the new file 0666 less the umask, as a file written in
    # place would get; tempfile.mkstemp would make it 0600, owner-only
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        exc.filename = path  # name the file asked for, not the temp file
        raise
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


class Dataset:
    """Labeled feature vectors, one class id and one float32 row per record.

    All records share one dimensionality and all values are finite; both are
    checked at construction.  ``values`` is float32, the storage precision:
    a contiguous array for a dataset built in memory, and a read-only view
    of the file's records for one from :func:`load_dataset`, whose pages
    are released after each read.  A pickled dataset unpickles as one
    built in memory.
    """

    # a loaded regular file's mapping
    _mapping = None

    def __init__(self, class_ids, values) -> None:
        ids = np.asarray(class_ids)
        vals = np.asarray(values)
        if vals.ndim != 2:
            raise DataError("values must be a 2-D array (records x features)")
        if ids.ndim != 1 or ids.shape[0] != vals.shape[0]:
            raise DataError("class_ids must have one entry per record")
        if vals.shape[0] == 0:
            raise SpecError("dataset must contain at least one record")
        if vals.shape[1] == 0:
            raise DataError("feature dimension must be at least 1")
        if ids.dtype.kind not in "iu":
            raise SpecError("class ids must be integers")
        if ids.dtype.kind == "i" and (ids < 0).any():
            raise SpecError("class ids must be non-negative")
        if (ids > _MAX_CLASS_ID).any():
            raise SpecError("class ids must be below 2**32")
        self.class_ids = ids.astype(np.uint32, copy=False)
        # a value beyond float32's range becomes inf, refused below
        with np.errstate(over="ignore"):
            self.values = np.ascontiguousarray(vals, dtype=np.float32)
        # a block of rows at a time: no mask of one byte per value
        step = max(1, _CHUNK_BYTES // self.values[0].nbytes)
        for lo in range(0, self.count, step):
            _check_finite(self.values[lo:lo + step])

    @classmethod
    def _view_of(cls, class_ids, records, mapping=None) -> Dataset:
        """A dataset whose values are a read-only view of ``records``, FSDC
        records already checked, without the constructor's copy."""
        ds = cls.__new__(cls)
        records.flags.writeable = False
        ds.class_ids, ds.values = class_ids, records["values"]
        ds._mapping = mapping
        return ds

    def __reduce__(self):
        # a mapping cannot be pickled; the copy holds its values in memory
        return Dataset, (self.class_ids, self.values)

    def _rows(self, idx) -> np.ndarray:
        """The values of the records ``idx``, an index array, as a new
        float64 array: the one way records are read, by the statistics
        build and by every episode.

        A mapped file's pages are then released, all of them: a read can
        map a whole large folio around each record, reaching past
        ``[min(idx), max(idx) + 1)``, so releasing only that span can leave
        pages held.  So a loaded dataset holds no file pages between reads.
        An empty ``idx`` gives a ``(0, dim)`` array and releases nothing.
        """
        rows = self.values[idx].astype(np.float64)
        if idx.size:
            self._release()
        return rows

    def _release(self) -> None:
        """Drop the mapped file's pages from the process, if the values are
        mapped from a file.  A later read maps them again from the page
        cache, so no value changes."""
        advice = getattr(mmap, "MADV_DONTNEED", None)
        if self._mapping is not None and advice is not None:
            self._mapping.madvise(advice)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def classes(self) -> list[int]:
        return [int(c) for c in np.unique(self.class_ids)]

    def rows_for(self, class_id: int) -> np.ndarray:
        """Row indices of the records belonging to ``class_id``, in file order."""
        return np.flatnonzero(self.class_ids == np.uint32(class_id))


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("class_id", "<u4"), ("values", "<f4", (dim,))])


def _encode_binary(ds: Dataset) -> bytes:
    header = _HEADER.pack(_MAGIC, _VERSION, ds.count, ds.dim)
    records = np.empty(ds.count, dtype=_record_dtype(ds.dim))
    records["class_id"] = ds.class_ids
    records["values"] = ds.values
    return header + records.tobytes()


def _check_finite(values) -> None:
    if not np.isfinite(values).all():
        raise DataError("feature values must be finite in float32")


def _read_binary(fh) -> Dataset:
    """Decode an FSDC file from ``fh``, a chunk of records at a time: no copy
    of the whole file is ever held beside its records.

    The pass keeps the class ids and checks the values.  A regular file is
    then mapped, and the dataset's values are a view of the mapping; any
    other file (a pipe) is held in memory as its records arrive.
    """
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise FormatError("file too short for a dataset header")
    magic, version, count, dim = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    if count == 0:
        raise FormatError("dataset declares zero records")
    if dim == 0:
        raise FormatError("dataset declares zero feature dimension")
    record = _record_dtype(dim)
    expected = _HEADER.size + count * record.itemsize

    def wrong_size(got: str):
        return FormatError(f"expected {expected} bytes for {count} records of "
                           f"dim {dim}, got {got}")

    # a regular file's size is known before anything is allocated, so a
    # header that overstates the records is refused up front; a pipe's is
    # not, so it is held as it arrives, never more than a chunk beyond it
    info = os.fstat(fh.fileno())
    regular = stat.S_ISREG(info.st_mode)
    if regular and info.st_size != expected:
        raise wrong_size(str(info.st_size))
    held = None if regular else bytearray(header)
    ids = []
    per_chunk = max(1, _CHUNK_BYTES // record.itemsize)
    buffer = np.empty(min(count, per_chunk) * record.itemsize, dtype=np.uint8)
    for start in range(0, count, per_chunk):
        chunk = buffer[:min(per_chunk, count - start) * record.itemsize]
        got = fh.readinto(chunk)
        if got != chunk.size:
            raise wrong_size(str(_HEADER.size + start * record.itemsize + got))
        records = chunk.view(record)
        _check_finite(records["values"])
        ids.append(records["class_id"].copy())
        if held is not None:
            held += memoryview(chunk)
    if fh.read(1):
        raise wrong_size("more")
    mapping = (mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
               if regular else None)
    records = np.frombuffer(held if mapping is None else mapping,
                            dtype=record, count=count, offset=_HEADER.size)
    return Dataset._view_of(np.concatenate(ids), records, mapping)


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset to ``path`` atomically as an FSDC file."""
    atomic_write_bytes(path, _encode_binary(ds))


def load_dataset(path) -> Dataset:
    """Load an FSDC file.  A regular file is mapped read-only, and the
    dataset's values are a view of it: rewrite the file only by replacing
    it, as :func:`save_dataset` does, while the dataset is in use.

    The mapping holds a duplicate of the file's descriptor until the
    dataset is garbage-collected, so a process keeps one descriptor open
    per loaded dataset alive; Python's ``mmap`` can drop it only from 3.13
    (``trackfd=False``)."""
    with open(path, "rb") as fh:
        return _read_binary(fh)


class SplitManifest:
    """Disjoint assignment of class ids to base, validation, and novel roles."""

    def __init__(self, base, val=(), novel=()) -> None:
        self.base_classes = frozenset(int(c) for c in base)
        self.val_classes = frozenset(int(c) for c in val)
        self.novel_classes = frozenset(int(c) for c in novel)
        for part in (self.base_classes, self.val_classes, self.novel_classes):
            if any(not 0 <= c <= _MAX_CLASS_ID for c in part):
                raise SpecError("split class ids must be in [0, 2**32)")
        if (self.base_classes & self.val_classes
                or self.base_classes & self.novel_classes
                or self.val_classes & self.novel_classes):
            raise SpecError("split roles must be disjoint")

    def to_payload(self) -> dict:
        return {
            "base": sorted(self.base_classes),
            "val": sorted(self.val_classes),
            "novel": sorted(self.novel_classes),
        }


def save_split(manifest: SplitManifest, path) -> None:
    atomic_write_text(path, json.dumps(manifest.to_payload(), indent=2,
                                       sort_keys=True) + "\n")


def load_split(path) -> SplitManifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:   # not UTF-8, not JSON, too many digits
            raise FormatError(
                f"split manifest is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError("split manifest must hold a JSON object")
    extra = set(payload) - {"base", "val", "novel"}
    if extra:
        raise FormatError(f"unknown split manifest keys: {sorted(extra)}")
    missing = {"base", "val", "novel"} - set(payload)
    if missing:
        raise FormatError(f"split manifest missing keys: {sorted(missing)}")
    for key in ("base", "val", "novel"):
        part = payload[key]
        if not isinstance(part, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) for c in part):
            raise FormatError(f"split manifest {key!r} must be a list of integers")
    try:
        return SplitManifest(payload["base"], payload["val"], payload["novel"])
    except SpecError as exc:
        raise FormatError(f"split manifest: {exc}") from None


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

# every synthetic world's latent geometry: the level all class means share,
# the spread, and the weights of a mean's group and own directions
_LATENT_LEVEL = 0.87
_LATENT_SIGMA = 0.33
_GROUP_SEPARATION = 0.8
_WITHIN_GROUP_OFFSET = 0.41


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic dataset with controllable skew and class layout.

    Latent samples for class c are ``u_c + sigma * z`` with standard normal
    ``z`` and ``sigma = 0.33``; the stored feature is
    ``|u_c + sigma*z| ** skew_power``.  With ``skew_power > 1`` the marginals
    are right-skewed, and raising them to ``1 / skew_power`` undoes the skew,
    so the best transform exponent is known by construction.

    Class means ``u_c`` share a common level and differ by direction vectors
    of equal length that are orthogonal to the all-ones direction.  Classes
    are grouped in consecutive runs of ``group_size``; classes in the same
    group share most of their direction, so their feature statistics stay
    close.
    """

    num_classes: int
    dim: int
    samples_per_class: int
    skew_power: float = 2.0
    group_size: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise SpecError("num_classes must be at least 1")
        if self.dim < 2:
            raise SpecError("synthetic feature dimension must be at least 2")
        if self.samples_per_class < 1:
            raise SpecError("samples_per_class must be at least 1")
        if not math.isfinite(self.skew_power) or self.skew_power < 1:
            raise SpecError("skew_power must be finite and at least 1")
        if self.group_size < 1:
            raise SpecError("group_size must be at least 1")


def _unit_orthogonal_to_ones(rng: PortableRng, dim: int) -> np.ndarray:
    # direction with zero component along the all-ones vector, so a shared
    # level shift never separates classes
    while True:
        v = rng.normal(dim)
        v = v - v.mean()
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            return v / norm


def generate_synthetic(spec: SyntheticSpec):
    """Build a synthetic dataset, its split manifest, and its class centers.

    Returns ``(dataset, split, latent_means)``, where row c of the float64
    ``(num_classes, dim)`` array ``latent_means`` is class c's latent mean
    ``u_c``.  The last class of every group with two or more members becomes
    a novel class; everything else is base.  All randomness is derived from
    ``spec.seed``, so the output is a pure function of the spec.
    """
    size, count = spec.group_size, spec.num_classes
    groups = [range(i, min(i + size, count)) for i in range(0, count, size)]
    dim = spec.dim

    group_rng = PortableRng(derive_key(spec.seed, _DOM_GROUP_DIR))
    group_dirs = [_unit_orthogonal_to_ones(group_rng, dim) for _ in groups]

    target_norm = math.hypot(_GROUP_SEPARATION, _WITHIN_GROUP_OFFSET)
    offset_rng = PortableRng(derive_key(spec.seed, _DOM_CLASS_OFFSET))
    n = spec.samples_per_class
    all_ids = np.repeat(np.arange(spec.num_classes, dtype=np.int64), n)
    all_values = np.empty((spec.num_classes * n, dim), dtype=np.float32)
    latent_means = np.empty((spec.num_classes, dim))
    for cid in range(spec.num_classes):
        # the sum of two unit vectors weighted 0.8 and 0.41 has a norm of at
        # least 0.39, so every class mean lies target_norm from the level
        delta = (_GROUP_SEPARATION * group_dirs[cid // spec.group_size]
                 + _WITHIN_GROUP_OFFSET
                 * _unit_orthogonal_to_ones(offset_rng, dim))
        u = _LATENT_LEVEL + delta * (target_norm / np.linalg.norm(delta))
        latent_means[cid] = u
        sample_rng = PortableRng(derive_key(spec.seed, _DOM_SAMPLES, cid))
        z = sample_rng.normal(n * dim).reshape(n, dim)
        feats = np.abs(u + _LATENT_SIGMA * z) ** spec.skew_power
        all_values[cid * n:(cid + 1) * n] = feats.astype(np.float32)

    novel = [group[-1] for group in groups if len(group) >= 2]
    base = [c for c in range(spec.num_classes) if c not in set(novel)]
    split = SplitManifest(base=base, val=(), novel=novel)
    return Dataset(all_ids, all_values), split, latent_means
