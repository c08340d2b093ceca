import gzip
import math
import os
import urllib.request

import numpy as np
import pytest

from convexlab.data import (
    FETCH_TIMEOUT_S,
    IdxFormatError,
    MNIST_FILES,
    SampleBatch,
    SplitSpec,
    TransportError,
    batches,
    fetch_mnist,
    load_idx_images,
    load_idx_labels,
    split,
    synthetic_blobs,
    synthetic_regression,
    write_idx_images,
    write_idx_labels,
)


def make_source(n, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return SampleBatch(rng.normal(size=(n, dim)), rng.integers(0, 5, size=n))


class TestIdx:
    def test_image_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, imgs)
        loaded = load_idx_images(path)
        assert loaded.shape == (3, 4, 5)
        assert np.array_equal((loaded * 255).round().astype(np.uint8), imgs)
        # byte-exact file round trip
        second = tmp_path / "again.idx"
        write_idx_images(second, (loaded * 255).round().astype(np.uint8))
        assert path.read_bytes() == second.read_bytes()

    def test_label_round_trip(self, tmp_path):
        labels = np.array([0, 9, 3, 7], dtype=np.uint8)
        path = tmp_path / "labels.idx"
        write_idx_labels(path, labels)
        assert np.array_equal(load_idx_labels(path), labels)

    def test_pixels_scaled_into_unit_interval(self, tmp_path):
        imgs = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, imgs)
        loaded = load_idx_images(path)
        assert loaded.min() == 0.0 and loaded.max() == 1.0

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx_labels(path, np.zeros(4, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="0x00000803"):
            load_idx_images(path)
        path2 = tmp_path / "imgs.idx"
        write_idx_images(path2, np.zeros((1, 2, 2), dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="0x00000801"):
            load_idx_labels(path2)

    def test_corrupted_magic_fixture(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x08\x02" + b"\x00" * 16)
        with pytest.raises(IdxFormatError):
            load_idx_images(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "imgs.idx"
        write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(IdxFormatError, match="offset"):
            load_idx_images(path)


class TestFetch:
    def _stage_remote(self, tmp_path, corrupt=None, skip=None):
        remote = tmp_path / "remote"
        remote.mkdir()
        rng = np.random.default_rng(1)
        for name in MNIST_FILES:
            if name == skip:
                continue
            local = remote / name
            if "images" in name:
                write_idx_images(local, rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8))
            else:
                write_idx_labels(local, rng.integers(0, 10, size=4, dtype=np.uint8))
            payload = local.read_bytes()
            if name == corrupt:
                payload = b"\xde\xad\xbe\xef" + payload[4:]
            (remote / (name + ".gz")).write_bytes(gzip.compress(payload))
            local.unlink()
        return f"file://{remote}/"

    def test_fetch_decompress_verify(self, tmp_path):
        url = self._stage_remote(tmp_path)
        dest = tmp_path / "data"
        paths = fetch_mnist(url, dest)
        assert len(paths) == 4
        assert all(os.path.exists(p) for p in paths)
        assert load_idx_images(paths[0]).shape == (4, 28, 28)

    def test_idempotent_cache_hit(self, tmp_path):
        url = self._stage_remote(tmp_path)
        dest = tmp_path / "data"
        fetch_mnist(url, dest)
        # remove the remote entirely: a second call must not need it
        for name in MNIST_FILES:
            (tmp_path / "remote" / (name + ".gz")).unlink()
        paths = fetch_mnist(url, dest)
        assert all(os.path.exists(p) for p in paths)

    def test_unreachable_leaves_no_partial_files(self, tmp_path):
        url = self._stage_remote(tmp_path, skip=MNIST_FILES[0])
        dest = tmp_path / "data"
        with pytest.raises(TransportError, match="train-images"):
            fetch_mnist(url, dest)
        assert not os.listdir(dest)

    def test_timeout_bounded_and_reported(self, tmp_path, monkeypatch):
        seen = []

        def black_hole(url, timeout=None):
            seen.append(timeout)
            raise TimeoutError("timed out")

        monkeypatch.setattr(urllib.request, "urlopen", black_hole)
        with pytest.raises(TransportError, match="timed out"):
            fetch_mnist("https://example.invalid/mnist/", tmp_path / "data")
        assert seen == [FETCH_TIMEOUT_S]
        assert math.isfinite(seen[0]) and seen[0] > 0

    def test_integrity_error_on_bad_magic(self, tmp_path):
        url = self._stage_remote(tmp_path, corrupt=MNIST_FILES[1])
        dest = tmp_path / "data"
        with pytest.raises(IdxFormatError):
            fetch_mnist(url, dest)
        # first file landed, corrupted one did not
        assert os.path.exists(os.path.join(dest, MNIST_FILES[0]))
        assert not os.path.exists(os.path.join(dest, MNIST_FILES[1]))


class TestSplit:
    def test_counts_and_disjointness(self):
        train_src = make_source(600)
        test_src = make_source(100, seed=1)
        tr, va, te = split(train_src, test_src, SplitSpec(400, 100, 80, shuffle_seed=1))
        assert (tr.size, va.size, te.size) == (400, 100, 80)
        tr_keys = {tuple(row) for row in tr.inputs}
        va_keys = {tuple(row) for row in va.inputs}
        assert not tr_keys & va_keys

    def test_deterministic_and_disjoint_over_seeds(self):
        train_src = make_source(200)
        test_src = make_source(50, seed=1)
        for seed in np.random.default_rng(0).integers(0, 2**31, size=10):
            spec = SplitSpec(120, 40, 20, shuffle_seed=int(seed))
            a = split(train_src, test_src, spec)
            b = split(train_src, test_src, spec)
            for x, y in zip(a, b):
                assert np.array_equal(x.inputs, y.inputs)
                assert np.array_equal(x.targets, y.targets)
            tr_keys = {tuple(row) for row in a[0].inputs}
            va_keys = {tuple(row) for row in a[1].inputs}
            assert not tr_keys & va_keys

    def test_eval_only_split(self):
        train_src = make_source(10)
        test_src = make_source(30, seed=1)
        tr, va, te = split(train_src, test_src, SplitSpec(0, 0, 30))
        assert tr is None and va is None and te.size == 30

    def test_oversubscription(self):
        with pytest.raises(ValueError):
            split(make_source(100), make_source(10, seed=1), SplitSpec(90, 20, 5))
        with pytest.raises(ValueError):
            split(make_source(100), make_source(10, seed=1), SplitSpec(10, 10, 20))

    def test_test_comes_from_test_source(self):
        train_src = make_source(50, dim=2, seed=2)
        test_src = SampleBatch(np.full((20, 2), 77.0), np.zeros(20, dtype=np.int64))
        _, _, te = split(train_src, test_src, SplitSpec(30, 10, 20, shuffle_seed=3))
        assert np.all(te.inputs == 77.0)


class TestBatches:
    def test_short_final_batch(self):
        ds = make_source(10)
        sizes = [b.size for b in batches(ds, 3, epoch_seed=0)]
        assert sizes == [3, 3, 3, 1]

    def test_same_seed_same_order(self):
        ds = make_source(12)
        a = [b.targets.tolist() for b in batches(ds, 4, epoch_seed=5)]
        b = [b.targets.tolist() for b in batches(ds, 4, epoch_seed=5)]
        assert a == b
        c = [b.targets.tolist() for b in batches(ds, 4, epoch_seed=6)]
        assert a != c

    def test_exact_coverage(self):
        ds = SampleBatch(np.arange(10)[:, None].astype(float), np.arange(10))
        seen = sorted(int(t) for b in batches(ds, 3, epoch_seed=1) for t in b.targets)
        assert seen == list(range(10))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            next(batches(make_source(5), 0, epoch_seed=0))


class TestSynthetic:
    def test_sine_exact_when_noise_free(self):
        ds = synthetic_regression("sine", 4, 0.0, seed=3)
        assert np.allclose(ds.targets, np.sin(ds.inputs[:, 0]))
        assert np.all(np.abs(ds.inputs) <= np.pi)

    def test_peak_exact_when_noise_free(self):
        ds = synthetic_regression("peak", 50, 0.0, seed=4)
        assert np.allclose(ds.targets, np.exp(-8.0 * ds.inputs[:, 0] ** 2))
        assert float(np.exp(-8.0 * 0.0**2)) == 1.0  # the bump peaks at one

    def test_deterministic(self):
        a = synthetic_regression("sine", 10, 0.3, seed=5)
        b = synthetic_regression("sine", 10, 0.3, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            synthetic_regression("sawtooth", 5, 0.0, seed=0)

    def test_blobs(self):
        ds = synthetic_blobs(100, num_classes=4, dim=6, seed=6)
        assert ds.inputs.shape == (100, 6)
        assert ds.is_classification
        assert set(np.unique(ds.targets)) <= set(range(4))
        again = synthetic_blobs(100, num_classes=4, dim=6, seed=6)
        assert np.array_equal(ds.inputs, again.inputs)


class TestSeedStreams:
    def test_named_substreams_are_independent(self):
        from convexlab.seeds import epoch_seed, rng_for

        a = rng_for(7, "init").random(4)
        b = rng_for(7, "init").random(4)
        assert np.array_equal(a, b)  # same (seed, label) -> same stream
        c = rng_for(7, "shuffle").random(4)
        d = rng_for(8, "init").random(4)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert epoch_seed(7, 0) == epoch_seed(7, 0)
        assert epoch_seed(7, 0) != epoch_seed(7, 1)


class TestDataDirResolution:
    def test_env_fallback_order(self, monkeypatch):
        from convexlab.data import DATA_DIR_ENV, default_data_dir

        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        assert default_data_dir() == "data"
        monkeypatch.setenv(DATA_DIR_ENV, "/somewhere/else")
        assert default_data_dir() == "/somewhere/else"
        assert default_data_dir("/explicit/wins") == "/explicit/wins"


class TestSampleBatch:
    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            SampleBatch(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            SampleBatch(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            SampleBatch(np.array([[np.inf]]), np.zeros(1))

    def test_classification_flag(self):
        assert make_source(5).is_classification
        assert not synthetic_regression("sine", 5, 0.0, seed=0).is_classification
