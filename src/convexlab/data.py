"""MNIST IDX ingestion, deterministic splits and batching, and synthetic
dataset generators.

IDX files are parsed big-endian with the standard magics (0x00000803 for
image tensors, 0x00000801 for label vectors); pixels are scaled by 1/255
into [0, 1].  `fetch_mnist` downloads and decompresses the four gzip files
with an atomic write-then-rename so a failed transfer never leaves partial
files behind.  Loaded datasets are immutable and safe to share across
concurrent readers.
"""

from __future__ import annotations

import gzip
import os
import struct
import tempfile
import urllib.error
import urllib.request
from dataclasses import dataclass

import numpy as np

from .seeds import rng_for

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

DEFAULT_MNIST_URL = "https://ossci-datasets.s3.amazonaws.com/mnist/"
# seconds any one connect or read of a download may block before it fails
# as a TransportError, so an unreachable route cannot hang a fetch
FETCH_TIMEOUT_S = 30.0

DATA_DIR_ENV = "CONVEXLAB_DATA_DIR"


class IdxFormatError(ValueError):
    """File does not follow the IDX layout (bad magic, truncation, ...)."""


class TransportError(RuntimeError):
    """Download failed; carries the URL and, when known, the HTTP status."""


@dataclass
class SampleBatch:
    """A contiguous batch: inputs (m, d) plus integer class labels or real
    regression targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        if self.inputs.ndim == 1:
            self.inputs = self.inputs[:, None]
        self.targets = np.asarray(self.targets)
        if self.inputs.shape[0] < 1:
            raise ValueError("a batch needs at least one sample")
        if self.targets.shape[0] != self.inputs.shape[0]:
            raise ValueError("inputs and targets disagree on sample count")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite values")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def is_classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)

    def take(self, indices) -> "SampleBatch":
        idx = np.asarray(indices)
        return SampleBatch(self.inputs[idx], self.targets[idx])


@dataclass(frozen=True)
class SplitSpec:
    train_count: int
    val_count: int
    test_count: int
    shuffle_seed: int = 0

    def __post_init__(self):
        if min(self.train_count, self.val_count, self.test_count) < 0:
            raise ValueError("split counts must be nonnegative")


def _read_exact(fh, nbytes, path, what):
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise IdxFormatError(
            f"{path}: truncated while reading {what} "
            f"(needed {nbytes} bytes at offset {fh.tell() - len(buf)}, got {len(buf)})"
        )
    return buf


def load_idx_images(path) -> np.ndarray:
    """(m, rows, cols) float array of pixels scaled into [0, 1]."""
    with open(path, "rb") as fh:
        magic, = struct.unpack(">i", _read_exact(fh, 4, path, "magic"))
        if magic != IMAGES_MAGIC:
            raise IdxFormatError(
                f"{path}: expected image magic 0x{IMAGES_MAGIC:08x}, got 0x{magic:08x}"
            )
        count, rows, cols = struct.unpack(">iii", _read_exact(fh, 12, path, "header"))
        raw = _read_exact(fh, count * rows * cols, path, "pixel payload")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    return pixels.astype(float) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """(m,) int array of labels."""
    with open(path, "rb") as fh:
        magic, = struct.unpack(">i", _read_exact(fh, 4, path, "magic"))
        if magic != LABELS_MAGIC:
            raise IdxFormatError(
                f"{path}: expected label magic 0x{LABELS_MAGIC:08x}, got 0x{magic:08x}"
            )
        count, = struct.unpack(">i", _read_exact(fh, 4, path, "header"))
        raw = _read_exact(fh, count, path, "label payload")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def write_idx_images(path, images) -> None:
    """Inverse of load_idx_images for uint8 pixel tensors (fixtures, demos)."""
    arr = np.asarray(images, dtype=np.uint8)
    if arr.ndim != 3:
        raise ValueError("images must be (m, rows, cols) uint8")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGES_MAGIC, *arr.shape))
        fh.write(arr.tobytes())


def write_idx_labels(path, labels) -> None:
    arr = np.asarray(labels, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("labels must be a 1-D uint8 vector")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">ii", LABELS_MAGIC, arr.shape[0]))
        fh.write(arr.tobytes())


def _verify_magic(path):
    with open(path, "rb") as fh:
        magic, = struct.unpack(">i", _read_exact(fh, 4, path, "magic"))
    if magic not in (IMAGES_MAGIC, LABELS_MAGIC):
        raise IdxFormatError(f"{path}: unrecognized magic 0x{magic:08x} after decompression")


def fetch_mnist(base_url: str = DEFAULT_MNIST_URL, dest_dir: str = "data") -> list:
    """Download and decompress the four MNIST IDX files into dest_dir.

    Idempotent: files already present with a valid magic are left alone and
    no network traffic happens for them.  Returns the four local paths in
    MNIST_FILES order.
    """
    os.makedirs(dest_dir, exist_ok=True)
    if not base_url.endswith("/"):
        base_url += "/"
    paths = []
    for name in MNIST_FILES:
        final = os.path.join(dest_dir, name)
        if os.path.exists(final):
            _verify_magic(final)
            paths.append(final)
            continue
        url = base_url + name + ".gz"
        try:
            with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
                payload = resp.read()
        except urllib.error.HTTPError as exc:
            raise TransportError(f"GET {url} failed with HTTP {exc.code}") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"GET {url} failed: {exc}") from exc
        try:
            raw = gzip.decompress(payload)
        except OSError as exc:
            raise IdxFormatError(f"{url}: payload is not valid gzip data") from exc
        fd, tmp = tempfile.mkstemp(dir=dest_dir, prefix=name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(raw)
            _verify_magic(tmp)
            os.replace(tmp, final)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        paths.append(final)
    return paths


def default_data_dir(explicit: str | None = None) -> str:
    """Resolve the dataset directory: explicit flag, then the
    CONVEXLAB_DATA_DIR environment variable, then ./data."""
    if explicit:
        return explicit
    return os.environ.get(DATA_DIR_ENV, "data")


def load_mnist(data_dir: str) -> tuple:
    """(train_source, test_source) SampleBatches with flattened 784-pixel
    rows.  Files must already be present (see fetch_mnist)."""
    paths = [os.path.join(data_dir, name) for name in MNIST_FILES]
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing MNIST file {p}; run fetch first")
    tr_x = load_idx_images(paths[0]).reshape(-1, 28 * 28)
    tr_y = load_idx_labels(paths[1])
    te_x = load_idx_images(paths[2]).reshape(-1, 28 * 28)
    te_y = load_idx_labels(paths[3])
    return SampleBatch(tr_x, tr_y), SampleBatch(te_x, te_y)


def split(train_source: SampleBatch, test_source: SampleBatch, spec: SplitSpec) -> tuple:
    """Deterministic (train, val, test) split.  Train and validation are
    disjoint draws from the shuffled training source (validation from the
    tail of the shuffle); test comes from the test source only."""
    n = train_source.size
    if spec.train_count + spec.val_count > n:
        raise ValueError(
            f"train+val = {spec.train_count + spec.val_count} exceeds source size {n}"
        )
    if spec.test_count > test_source.size:
        raise ValueError(f"test_count {spec.test_count} exceeds test source size {test_source.size}")
    perm = rng_for(spec.shuffle_seed, "split").permutation(n)
    train_idx = perm[: spec.train_count]
    val_idx = perm[n - spec.val_count:] if spec.val_count else perm[:0]
    train = train_source.take(train_idx) if spec.train_count else None
    val = train_source.take(val_idx) if spec.val_count else None
    test = test_source.take(np.arange(spec.test_count)) if spec.test_count else None
    return train, val, test


def batches(dataset: SampleBatch, batch_size: int, epoch_seed: int):
    """Yield the dataset once, reshuffled by epoch_seed, in batches of
    batch_size with the final short batch kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng_for(epoch_seed, "shuffle").permutation(dataset.size)
    for start in range(0, dataset.size, batch_size):
        yield dataset.take(order[start:start + batch_size])


def synthetic_regression(name: str, m: int, noise_sd: float, seed: int) -> SampleBatch:
    """1-D regression sets: 'sine' is y = sin(x) on [-pi, pi]; 'peak' is the
    bump y = exp(-8 x^2) on [-1, 1].  Gaussian noise with sd noise_sd."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = rng_for(seed, "synthetic")
    if name == "sine":
        x = rng.uniform(-np.pi, np.pi, size=m)
        y = np.sin(x)
    elif name == "peak":
        x = rng.uniform(-1.0, 1.0, size=m)
        y = np.exp(-8.0 * x * x)
    else:
        raise ValueError(f"unknown synthetic dataset {name!r} (expected 'sine' or 'peak')")
    if noise_sd:
        y = y + rng.normal(0.0, noise_sd, size=m)
    return SampleBatch(x[:, None], y)


def synthetic_blobs(m: int, num_classes: int, dim: int, seed: int,
                    separation: float = 3.0, noise_sd: float = 1.0) -> SampleBatch:
    """Gaussian-blob classification set: one random unit-direction center per
    class at distance `separation`, isotropic noise.  Deterministic per seed."""
    if m < 1 or num_classes < 2 or dim < 1:
        raise ValueError("need m >= 1, num_classes >= 2, dim >= 1")
    rng = rng_for(seed, "blobs")
    centers = rng.normal(size=(num_classes, dim))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, num_classes, size=m)
    x = centers[labels] + rng.normal(0.0, noise_sd, size=(m, dim))
    return SampleBatch(x, labels.astype(np.int64))
