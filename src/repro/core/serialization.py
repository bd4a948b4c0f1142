"""On-disk format for GOBO-compressed models.

A :class:`~repro.core.model_quantizer.QuantizedModel` round-trips through a
single ``.npz`` archive whose size is dominated by the bit-packed G-group
codes — i.e. the file on disk realizes the ~10x compression the paper
reports, not just the in-memory accounting.

Layout (format version 3) per quantized tensor ``<name>``::

    gobo::<name>::codes       packed bitstream (uint8)
    gobo::<name>::centroids   2^bits FP32 reconstruction table
    gobo::<name>::positions   outlier flat indices (uint32)
    gobo::<name>::outliers    outlier values (float32)
    gobo::<name>::meta        [bits, iterations, *shape]

Pass-through FP32 parameters are stored under ``fp32::<name>`` as float32
(the paper's decode target precision; note the in-memory substrate computes
in float64).  The ``index::fc`` / ``index::embeddings`` name lists are
fixed-width unicode arrays and ``index::version`` tags the layout, so the
archive contains **no object arrays**: the reader refuses them, so it is
safe to read from untrusted sources.

Guarantees:

* ``save_quantized_model`` normalizes paths the way ``np.savez`` does —
  a missing ``.npz`` suffix is appended — and returns the byte size of the
  file actually written.
* **Atomic writes.** The archive is written to a temporary sibling, fsynced
  and renamed into place (:func:`repro.utils.atomic.atomic_savez`): a crash
  mid-save leaves the previous archive intact, never a truncated one.
* **Checksummed contents.** Version-3 archives carry a SHA-256 digest over
  every stored array (``index::checksum``); :func:`load_quantized_model`
  verifies it and raises :class:`~repro.errors.ChecksumMismatchError` on bit
  rot.  :func:`verify_archive` classifies an archive as intact / missing /
  truncated / checksum-mismatched / version-unknown without constructing a
  model.
* **One reader.** Every load and check goes through
  :class:`~repro.core.npzmap.MmapNpzReader` and :func:`read_verified`, so
  eager loads, lazy loads and :func:`verify_archive` cannot drift apart.
* The clustering iteration counts (``QuantizedModel.iterations``) survive
  the round-trip, so per-layer reports can be regenerated after a reload.
* Version-1 archives (no iteration counts in ``meta``) and version-2
  archives (no checksum) still load; the checksum verification is simply
  skipped for them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.core.model_quantizer import QuantizedModel
from repro.core.npzmap import MmapNpzReader
from repro.core.quantizer import GoboQuantizedTensor
from repro.errors import (
    ChecksumMismatchError,
    SerializationError,
    TruncatedArchiveError,
)
from repro.obs import recorder as obs
from repro.utils.atomic import atomic_savez

FORMAT_VERSION = 3
CHECKSUM_KEY = "index::checksum"


def _normalize_path(path: str | Path) -> Path:
    """Mirror ``np.savez``'s suffix handling: append ``.npz`` if absent."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def payload_checksum(payload: Mapping[str, np.ndarray]) -> bytes:
    """SHA-256 digest over every array (except the checksum itself).

    Keys are visited in sorted order and each contribution covers the key,
    dtype, shape and raw bytes, so any bit flip in data *or* metadata — and
    any added, dropped or renamed array — changes the digest.
    """
    digest = hashlib.sha256()
    for key in sorted(payload):
        if key == CHECKSUM_KEY:
            continue
        array = np.ascontiguousarray(payload[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.digest()


def save_quantized_model(model: QuantizedModel, path: str | Path) -> int:
    """Write ``model`` to ``path`` (npz). Returns the file size in bytes.

    ``np.savez`` silently appends ``.npz`` when the path lacks the suffix;
    the path is normalized the same way first so the size reported is that
    of the file actually written.  The write is atomic (tmp + fsync +
    rename) and the archive carries a SHA-256 content checksum.
    """
    payload: dict[str, np.ndarray] = {}
    for name, tensor in model.quantized.items():
        payload[f"gobo::{name}::codes"] = np.frombuffer(tensor.packed_codes, dtype=np.uint8)
        payload[f"gobo::{name}::centroids"] = tensor.centroids.astype(np.float32)
        payload[f"gobo::{name}::positions"] = tensor.outlier_positions.astype(np.uint32)
        payload[f"gobo::{name}::outliers"] = tensor.outlier_values.astype(np.float32)
        payload[f"gobo::{name}::meta"] = np.array(
            [tensor.bits, model.iterations.get(name, 0), *tensor.shape], dtype=np.int64
        )
    for name, value in model.fp32.items():
        payload[f"fp32::{name}"] = np.asarray(value, dtype=np.float32)
    payload["index::fc"] = np.array(model.fc_names, dtype=np.str_)
    payload["index::embeddings"] = np.array(model.embedding_names, dtype=np.str_)
    payload["index::version"] = np.array([FORMAT_VERSION], dtype=np.int64)
    payload[CHECKSUM_KEY] = np.frombuffer(payload_checksum(payload), dtype=np.uint8)
    size = atomic_savez(_normalize_path(path), payload)
    obs.counter("serialization.archives_written")
    obs.counter("serialization.bytes_written", size)
    return size


def read_verified(reader: MmapNpzReader) -> dict[str, np.ndarray]:
    """Read every member of ``reader`` and check ``index::checksum``.

    The one content check of every checksummed archive, model archives and
    job shards alike.  Raises :class:`~repro.errors.ChecksumMismatchError`
    when the checksum member is absent or does not match; a verifying
    reader also checks each member's zip CRC-32 as it is read.
    """
    arrays = {key: reader.read(key) for key in reader.keys()}
    if CHECKSUM_KEY not in arrays:
        raise ChecksumMismatchError(f"archive {reader.path} carries no checksum")
    recorded = bytes(np.asarray(arrays[CHECKSUM_KEY], dtype=np.uint8).tobytes())
    actual = payload_checksum(arrays)
    if recorded != actual:
        raise ChecksumMismatchError(
            f"archive {reader.path} failed checksum verification: "
            f"recorded {recorded.hex()[:16]}…, computed {actual.hex()[:16]}…"
        )
    return arrays


def _archive_version(reader: MmapNpzReader) -> int:
    """The archive's ``index::version``; version-1 archives carry none."""
    return int(reader.read("index::version")[0]) if "index::version" in reader else 1


def _parse_meta(meta: np.ndarray, version: int) -> tuple[int, int, tuple[int, ...]]:
    """(bits, iterations, shape) from a ``::meta`` record of ``version``."""
    if version >= 2:
        return int(meta[0]), int(meta[1]), tuple(int(d) for d in meta[2:])
    return int(meta[0]), 0, tuple(int(d) for d in meta[1:])


class LazyQuantizedTensors(MappingABC):
    """Per-layer on-demand decode over a memory-mapped archive.

    Behaves like the ``quantized`` dict of a :class:`QuantizedModel`, but a
    layer's codes/centroids/outliers are materialized only when the layer
    is first accessed — and the bit-packed codes stay **views into the
    map** (no copy), so the bytes a forward pass touches are exactly the
    layers it uses.  Decodes are traced on the ``serialization.lazy_layer``
    span and the ``npzmap.bytes_mapped`` counter.
    """

    def __init__(self, reader: MmapNpzReader, metas: dict[str, np.ndarray], version: int) -> None:
        self._reader = reader
        self._metas = metas
        self._version = version
        self._cache: dict[str, GoboQuantizedTensor] = {}

    def __getitem__(self, name: str) -> GoboQuantizedTensor:
        if name in self._cache:
            return self._cache[name]
        if name not in self._metas:
            raise KeyError(name)
        with obs.span("serialization.lazy_layer", layer=name):
            bits, _, shape = _parse_meta(self._metas[name], self._version)
            try:
                tensor = GoboQuantizedTensor(
                    shape=shape,
                    bits=bits,
                    centroids=self._reader.read(f"gobo::{name}::centroids").astype(np.float64),
                    packed_codes=self._reader.read(f"gobo::{name}::codes"),
                    outlier_positions=self._reader.read(f"gobo::{name}::positions").astype(np.int64),
                    outlier_values=self._reader.read(f"gobo::{name}::outliers").astype(np.float64),
                )
            except KeyError as exc:
                raise SerializationError(f"archive missing field for {name}: {exc}") from exc
        obs.counter("serialization.lazy_layers_decoded")
        self._cache[name] = tensor
        return tensor

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metas))

    def __len__(self) -> int:
        return len(self._metas)

    def close(self) -> None:
        """Release the underlying archive map.

        The serving registry calls this when a hot-swapped model drains: the
        archive's file descriptor closes immediately; the map itself lingers
        only while already-materialized code views are alive (see
        :meth:`MmapNpzReader.close`).  Tensors decoded before the close stay
        usable; new layer accesses will fail.
        """
        self._reader.close()


def _map_model(path: Path, verify: str) -> QuantizedModel:
    """Map the archive at ``path`` as a model whose tensors decode lazily."""
    reader = MmapNpzReader(path, verify=(verify != "none"))
    obs.counter("serialization.archives_read")
    try:
        version = _archive_version(reader)
        if not 1 <= version <= FORMAT_VERSION:
            raise SerializationError(
                f"archive {path} has format version {version}; "
                f"this reader supports 1..{FORMAT_VERSION}"
            )
        if verify == "full" and version >= 3:
            read_verified(reader)
        keys = reader.keys()
        metas = {
            key.split("::", 2)[1]: reader.read(key)
            for key in keys
            if key.startswith("gobo::") and key.endswith("::meta")
        }
        iterations = {}
        for name, meta in metas.items():
            _, layer_iterations, _ = _parse_meta(meta, version)
            if layer_iterations > 0:
                iterations[name] = layer_iterations
        # Pass-through FP32 params (biases, LayerNorm, fallback layers) are
        # copied eagerly: any load target needs them in full, and they are
        # the small remainder once the weights are bit-packed.
        fp32 = {
            key[len("fp32::"):]: reader.read(key).astype(np.float64)
            for key in keys
            if key.startswith("fp32::")
        }
        try:
            fc_names = tuple(str(n) for n in reader.read("index::fc"))
            embedding_names = tuple(str(n) for n in reader.read("index::embeddings"))
        except KeyError as exc:
            raise SerializationError(f"archive missing index: {exc}") from exc
    except BaseException:
        reader.close()
        raise
    return QuantizedModel(
        quantized=LazyQuantizedTensors(reader, metas, version),
        fp32=fp32,
        fc_names=fc_names,
        embedding_names=embedding_names,
        iterations=iterations,
    )


def load_quantized_model(
    path: str | Path, lazy: bool = False, verify: str | None = None
) -> QuantizedModel:
    """Read a :class:`QuantizedModel` written by :func:`save_quantized_model`.

    The archive is memory-mapped (:class:`~repro.core.npzmap.MmapNpzReader`,
    which refuses object arrays) and the per-layer iteration counts
    recorded at quantization time are restored.  An eager load decodes
    every tensor, copies its codes into bytes it owns and closes the map.

    With ``lazy=True`` the map stays open: indexes and per-layer metadata
    load eagerly (a few hundred bytes), but each quantized tensor is
    constructed on first access with its packed codes left as zero-copy
    views into the map (see :class:`LazyQuantizedTensors`).  Feeding these
    tensors to :mod:`repro.kernels` serves inference with bytes-touched
    proportional to the layers used.

    ``verify`` selects the integrity level; every level checks structure
    (local headers, member names and bounds, .npy headers):

    * ``"full"`` — as ``"lazy"``, and a version-3 archive's every member
      is read and its whole-archive SHA-256 content checksum verified up
      front (reads every byte).  Default for eager loads.
    * ``"lazy"`` — each member's bytes are checked against the zip CRC-32
      on first access, so a lazy load stays proportional to the layers
      touched but bit rot still raises
      :class:`~repro.errors.ChecksumMismatchError` instead of producing
      silently wrong logits.  Default for lazy loads; an eager load reads
      every byte anyway, so for it ``"lazy"`` means ``"full"``.
    * ``"none"`` — no content verification of a lazy load (an eager one
      still CRC-checks every member it reads).  Opt-in only: an unverified
      load can serve silently wrong logits from a bit-rotted archive.
    """
    path = Path(path)
    if verify is None:
        verify = "lazy" if lazy else "full"
    if verify not in ("none", "lazy", "full"):
        raise ValueError(f"verify must be 'none', 'lazy' or 'full', got {verify!r}")
    if lazy:
        return _map_model(path, verify)
    # An eager load reads every member, so it CRC-checks each one even at
    # "none"; "lazy" and "full" both add the content checksum.
    model = _map_model(path, "lazy" if verify == "none" else "full")
    tensors = model.quantized
    try:
        model.quantized = {
            name: replace(tensor, packed_codes=tensor.packed_codes.tobytes())
            for name, tensor in tensors.items()
        }
    finally:
        tensors.close()
    return model


@dataclass(frozen=True)
class ArchiveCheck:
    """The classification produced by :func:`verify_archive`.

    ``status`` is one of ``"ok"`` (version-3, checksum verified),
    ``"ok-unchecksummed"`` (readable legacy version-1/2 archive),
    ``"missing"``, ``"truncated"``, ``"checksum-mismatch"`` or
    ``"version-unknown"``.
    """

    path: Path
    status: str
    version: int | None
    detail: str

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "ok-unchecksummed")


def verify_archive(path: str | Path) -> ArchiveCheck:
    """Classify the archive at ``path`` without constructing a model.

    Distinguishes the four failure modes a durable store must tell apart:
    the file is absent, the container is truncated or not a zip at all, the
    contents fail verification (bit flips: member CRC, local-header name or
    content checksum), or the format version is newer than this reader.
    """
    path = Path(path)
    if not path.exists():
        return ArchiveCheck(path, "missing", None, "file does not exist")
    version = None
    try:
        with MmapNpzReader(path, verify=True) as reader:
            version = _archive_version(reader)
            if not 1 <= version <= FORMAT_VERSION:
                return ArchiveCheck(
                    path, "version-unknown", version,
                    f"format version {version}; this reader supports 1..{FORMAT_VERSION}",
                )
            if version >= 3:
                arrays = read_verified(reader)
            else:
                arrays = {key: reader.read(key) for key in reader.keys()}
    except TruncatedArchiveError as exc:
        return ArchiveCheck(path, "truncated", None, str(exc))
    except SerializationError as exc:
        return ArchiveCheck(path, "checksum-mismatch", version, str(exc))
    if version < 3:
        return ArchiveCheck(
            path, "ok-unchecksummed", version,
            f"readable legacy archive (format version {version} has no checksum)",
        )
    tensors = sum(1 for key in arrays if key.endswith("::meta"))
    return ArchiveCheck(
        path, "ok", version,
        f"checksum verified over {len(arrays)} arrays ({tensors} quantized tensors)",
    )
