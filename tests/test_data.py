import gzip
import math
import os
import subprocess
import sys
import tracemalloc
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from convexlab.data import (
    BLOB_CHUNK_ROWS,
    FETCH_TIMEOUT_S,
    IdxFormatError,
    MNIST_FILES,
    SampleBatch,
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


def test_import_leaves_network_stack_unloaded():
    # a fresh interpreter: this one has urllib loaded by the fetch tests
    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = ("import sys, convexlab; "
             "print(' '.join(m for m in ('urllib.request', 'http.client', 'ssl', 'email') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == []


class TestSplit:
    def test_counts_and_disjointness(self):
        train_src = make_source(600)
        test_src = make_source(100, seed=1)
        tr, va, te = split(train_src, test_src, 400, 100, 80, shuffle_seed=1)
        assert (tr.size, va.size, te.size) == (400, 100, 80)
        tr_keys = {tuple(row) for row in tr.inputs}
        va_keys = {tuple(row) for row in va.inputs}
        assert not tr_keys & va_keys

    def test_deterministic_and_disjoint_over_seeds(self):
        train_src = make_source(200)
        test_src = make_source(50, seed=1)
        for seed in np.random.default_rng(0).integers(0, 2**31, size=10):
            a = split(train_src, test_src, 120, 40, 20, shuffle_seed=int(seed))
            b = split(train_src, test_src, 120, 40, 20, shuffle_seed=int(seed))
            for x, y in zip(a, b):
                assert np.array_equal(x.inputs, y.inputs)
                assert np.array_equal(x.targets, y.targets)
            tr_keys = {tuple(row) for row in a[0].inputs}
            va_keys = {tuple(row) for row in a[1].inputs}
            assert not tr_keys & va_keys

    @pytest.mark.parametrize("counts", [(0, 5, 5), (5, 0, 5), (5, 5, 0), (5, 5, -1)])
    def test_zero_count_refused(self, counts):
        # every part is a batch, so none may be empty
        with pytest.raises(ValueError) as exc:
            split(make_source(10), make_source(30, seed=1), *counts)
        assert str(exc.value) == "split counts must be >= 1, got {}, {}, {}".format(*counts)

    def test_oversubscription(self):
        with pytest.raises(ValueError):
            split(make_source(100), make_source(10, seed=1), 90, 20, 5)
        with pytest.raises(ValueError):
            split(make_source(100), make_source(10, seed=1), 10, 10, 20)

    def test_test_comes_from_test_source(self):
        train_src = make_source(50, dim=2, seed=2)
        test_src = SampleBatch(np.full((20, 2), 77.0), np.zeros(20, dtype=np.int64))
        _, _, te = split(train_src, test_src, 30, 10, 20, shuffle_seed=3)
        assert np.all(te.inputs == 77.0)

    def test_parts_are_copies_of_unchanged_rows(self):
        # test is the head of its source, yet a copy: a view would keep the
        # whole test source alive behind a small test set
        train_src, test_src = make_source(60), make_source(40, seed=1)
        tr, va, te = split(train_src, test_src, 30, 10, 20, shuffle_seed=4)
        for part, source in ((tr, train_src), (va, train_src), (te, test_src)):
            assert not np.shares_memory(part.inputs, source.inputs)
            assert not np.shares_memory(part.targets, source.targets)
        assert np.array_equal(te.inputs, test_src.inputs[:20])
        assert np.array_equal(te.targets, test_src.targets[:20])
        rows = {tuple(row): i for i, row in enumerate(train_src.inputs)}
        for part in (tr, va):
            idx = [rows[tuple(row)] for row in part.inputs]
            assert np.array_equal(part.targets, train_src.targets[idx])


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

    def test_blobs_equal_centres_plus_noise_bit_for_bit(self):
        # the in-place, blockwise addition gives the one-expression sum: the
        # draws keep their order (centres, labels, noise) and addition commutes
        from convexlab.seeds import rng_for

        m, k, dim, seed, separation, noise_sd = 2 * BLOB_CHUNK_ROWS + 37, 5, 7, 9, 2.5, 0.7
        ds = synthetic_blobs(m, k, dim, seed, separation=separation, noise_sd=noise_sd)
        rng = rng_for(seed, "blobs")
        centers = rng.normal(size=(k, dim))
        centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
        labels = rng.integers(0, k, size=m)
        expected = centers[labels] + rng.normal(0.0, noise_sd, size=(m, dim))
        assert ds.inputs.tobytes() == expected.tobytes()
        assert np.array_equal(ds.targets, labels)

    def test_blobs_allocate_no_full_size_temporary(self):
        tracemalloc.start()
        try:
            ds = synthetic_blobs(6000, 10, 784, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one output array plus a block of centres; a full-size
        # centres[labels] temporary would read about 2x
        assert peak < 1.5 * ds.inputs.nbytes


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
        for bad in (np.nan, np.inf, -np.inf):
            x = np.zeros((4, 3))
            x[2, 1] = bad
            with pytest.raises(ValueError, match="inputs contain non-finite values"):
                SampleBatch(x, np.zeros(4))
            # real targets too, vectors and columns; labels are finite by type
            for y in (np.array([0.0, bad, 2.0, 1.0]), np.array([[0.0, 1.0], [bad, 1.0], [2.0, 0.5], [1.0, 1.0]])):
                with pytest.raises(ValueError, match="^targets contain non-finite values$"):
                    SampleBatch(np.zeros((4, 3)), y)
        # an input with no features has no extremes, and is not refused for it
        assert SampleBatch(np.zeros((3, 0)), np.zeros(3)).size == 3

    @pytest.mark.parametrize("shape", [(4,), (), (2, 2, 3)])
    def test_inputs_of_another_rank_refused(self, shape):
        # a vector is neither m samples of one feature nor one sample of d
        with pytest.raises(ValueError) as exc:
            SampleBatch(np.zeros(shape), np.zeros(shape[:1] or 1))
        assert str(exc.value) == f"inputs must be an (m, d) array, got shape {shape}"

    def test_take_of_a_run_is_a_view(self):
        src = make_source(20)
        for indices in (np.arange(3, 11), range(3, 11), np.arange(20), [4], range(19, 20),
                        np.arange(5, 9, dtype=np.int32)):
            part = src.take(indices)
            rows = np.asarray(indices)
            assert np.shares_memory(part.inputs, src.inputs), indices
            assert np.shares_memory(part.targets, src.targets), indices
            assert np.array_equal(part.inputs, src.inputs[rows])
            assert np.array_equal(part.targets, src.targets[rows])

    def test_take_of_other_indices_is_a_copy(self):
        src = make_source(20)
        mask = np.zeros(20, dtype=bool)
        mask[[2, 3, 4]] = True
        for indices in (np.array([3, 5, 4]), np.arange(10, 2, -1), np.arange(2, 12, 2),
                        np.array([2, 3, 5, 6]), np.array([5, 6, 7, 7]), mask,
                        np.random.default_rng(0).permutation(20)):
            part = src.take(indices)
            assert not np.shares_memory(part.inputs, src.inputs), indices
            assert not np.shares_memory(part.targets, src.targets), indices
            assert np.array_equal(part.inputs, src.inputs[indices])
            assert np.array_equal(part.targets, src.targets[indices])

    def test_take_keeps_fancy_index_behaviour_at_the_edges(self):
        src = make_source(20)
        for indices in (np.arange(18, 21), range(15, 25), [20]):
            with pytest.raises(IndexError):
                src.take(indices)
        for indices in (np.arange(-3, 0), range(-5, -1)):
            part = src.take(indices)
            assert np.array_equal(part.inputs, src.inputs[np.asarray(indices)])
            assert np.array_equal(part.targets, src.targets[np.asarray(indices)])
            assert not np.shares_memory(part.inputs, src.inputs)
        with pytest.raises(ValueError, match=r"inputs must be an \(m, d\) array, got shape \(2, 2, 3\)"):
            src.take(np.array([[0, 1], [2, 3]]))
        with pytest.raises(ValueError):
            src.take(np.arange(0))  # an empty batch is refused as before

    def test_contiguous_take_allocates_no_copy_of_its_rows(self):
        src = synthetic_blobs(6000, 10, 784, seed=1)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            part = src.take(np.arange(1000, 6000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # no copy of the rows, and no finiteness mask either
        assert peak - base < 0.01 * (part.inputs.nbytes + part.targets.nbytes)

    def test_finiteness_check_allocates_no_mask(self):
        # min and max find NaN and +-inf without a boolean mask of 1/8 of
        # the inputs' bytes
        x = np.random.default_rng(0).normal(size=(6000, 784))
        y = np.zeros(6000, dtype=np.int64)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            SampleBatch(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 0.01 * x.nbytes

    def test_classification_flag(self):
        assert make_source(5).is_classification
        assert not synthetic_regression("sine", 5, 0.0, seed=0).is_classification
