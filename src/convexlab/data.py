"""MNIST IDX ingestion, deterministic splits and batching, and synthetic
dataset generators.

IDX files are parsed big-endian with the standard magics (0x00000803 for
image tensors, 0x00000801 for label vectors); pixels are scaled by 1/255
into [0, 1].  `fetch_mnist` downloads and decompresses the four gzip files
with an atomic write-then-rename so a failed transfer never leaves partial
files behind.  The network stack (urllib, http.client, ssl) is imported
only when `fetch_mnist` runs, so `import convexlab` does not load it.
Loaded datasets are immutable and safe to share across concurrent readers.
A batch's inputs are (m, d) everywhere, and `split` returns three batches.
"""

from __future__ import annotations

import gzip
import os
import struct
import tempfile
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

# rows of centres `synthetic_blobs` gathers at once: at 784 features, 1.6 MB
BLOB_CHUNK_ROWS = 256


class IdxFormatError(ValueError):
    """File does not follow the IDX layout (bad magic, truncation, ...)."""


class TransportError(RuntimeError):
    """Download failed; carries the URL and, when known, the HTTP status."""


@dataclass
class SampleBatch:
    """A contiguous batch: (m, d) inputs, refused in any other rank, plus integer
    class labels or real regression targets; inputs and real targets are finite."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be an (m, d) array, got shape {self.inputs.shape}")
        if self.inputs.shape[0] < 1:
            raise ValueError("a batch needs at least one sample")
        if self.targets.shape[0] != self.inputs.shape[0]:
            raise ValueError("inputs and targets disagree on sample count")
        # NaN and +-inf reach the extremes, so no full-size mask is built;
        # integer labels are finite and skip the check
        for name, arr in (("inputs", self.inputs), ("targets", self.targets)):
            if arr.size and arr.dtype.kind == "f" and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise ValueError(f"{name} contain non-finite values")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def is_classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)

    def take(self, indices) -> "SampleBatch":
        """The rows `indices` names, in that order.  An ascending run of
        consecutive in-range rows, such as `np.arange(a, b)` or
        `range(a, b)`, comes back as a slice view that shares memory with
        this batch; any other index vector (permuted, strided, negative,
        boolean) is a copy, as numpy's fancy indexing gives, and an index of
        another rank is refused.  Sharing is safe because nothing writes into
        a batch once it is built."""
        idx = np.asarray(indices)
        if idx.ndim == 1 and idx.size and idx.dtype.kind in "iu":
            # scalar reads first, so a shuffled batch skips the O(m) step test
            first, last = int(idx[0]), int(idx[-1])
            if (first >= 0 and last < self.size and last - first == idx.size - 1
                    and np.all(np.diff(idx) == 1)):
                idx = slice(first, last + 1)
        return SampleBatch(self.inputs[idx], self.targets[idx])


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
    # imported here, not with the package: nothing else downloads
    import urllib.error
    import urllib.request

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


def split(train_source: SampleBatch, test_source: SampleBatch, train_count: int,
          val_count: int, test_count: int, shuffle_seed: int = 0) -> tuple:
    """Deterministic (train, val, test) split; every count must be >= 1.
    Train and validation are disjoint draws from the shuffled training
    source (validation from the tail of the shuffle); test is the head of
    the test source.  Every part is a copy, so no part keeps a whole
    source alive."""
    if min(train_count, val_count, test_count) < 1:
        raise ValueError(f"split counts must be >= 1, got {train_count}, {val_count}, {test_count}")
    n = train_source.size
    if train_count + val_count > n:
        raise ValueError(f"train+val = {train_count + val_count} exceeds source size {n}")
    if test_count > test_source.size:
        raise ValueError(f"test_count {test_count} exceeds test source size {test_source.size}")
    perm = rng_for(shuffle_seed, "split").permutation(n)
    return (train_source.take(perm[:train_count]), train_source.take(perm[n - val_count:]),
            SampleBatch(test_source.inputs[:test_count].copy(), test_source.targets[:test_count].copy()))


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
    class at distance `separation`, isotropic noise.  Deterministic per seed.
    The noise is drawn into the output array and the centres are added to
    it in place, a block of rows at a time, so no full-size temporary is
    allocated."""
    if m < 1 or num_classes < 2 or dim < 1:
        raise ValueError("need m >= 1, num_classes >= 2, dim >= 1")
    rng = rng_for(seed, "blobs")
    centers = rng.normal(size=(num_classes, dim))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, num_classes, size=m)
    x = rng.normal(0.0, noise_sd, size=(m, dim))
    for start in range(0, m, BLOB_CHUNK_ROWS):
        rows = slice(start, start + BLOB_CHUNK_ROWS)
        x[rows] += centers[labels[rows]]
    return SampleBatch(x, labels.astype(np.int64))
