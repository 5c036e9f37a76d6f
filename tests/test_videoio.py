import os
import struct

import numpy as np
import pytest

from latent_elevator import load_latent, render_frames, save_latent
from latent_elevator.videoio import HEADER_SIZE, MAGIC, write_atomic


class TestLatentFiles:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        v = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        path = tmp_path / "x.elvt"
        save_latent(v, path)
        np.testing.assert_array_equal(load_latent(path), v)

    def test_float64_is_stored_as_float32(self, tmp_path, rng):
        v = rng.standard_normal((2, 1, 4, 4))
        path = tmp_path / "x.elvt"
        save_latent(v, path)
        np.testing.assert_array_equal(load_latent(path), v.astype(np.float32))

    def test_file_size_arithmetic(self, tmp_path, rng):
        v = rng.standard_normal((16, 4, 16, 16))
        path = tmp_path / "x.elvt"
        save_latent(v, path)
        assert path.stat().st_size == 32 + 16 * 4 * 16 * 16 * 4

    def test_truncated_file_rejected(self, tmp_path, rng):
        v = rng.standard_normal((2, 1, 4, 4))
        path = tmp_path / "x.elvt"
        save_latent(v, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_latent(path)
        path.write_bytes(raw[:10])
        with pytest.raises(ValueError, match="truncated"):
            load_latent(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.elvt"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="bad magic"):
            load_latent(path)

    def test_bad_version(self, tmp_path):
        header = MAGIC + struct.pack("<H4I", 9, 1, 1, 1, 1)
        header += b"\x00" * (HEADER_SIZE - len(header))
        path = tmp_path / "x.elvt"
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(ValueError, match="version"):
            load_latent(path)

    def test_shape_overflow(self, tmp_path):
        header = MAGIC + struct.pack("<H4I", 1, 2**16, 2**16, 64, 64)
        header += b"\x00" * (HEADER_SIZE - len(header))
        path = tmp_path / "x.elvt"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="shape overflow"):
            load_latent(path)

    def test_zero_dimension_rejected(self, tmp_path):
        header = MAGIC + struct.pack("<H4I", 1, 0, 1, 4, 4)
        header += b"\x00" * (HEADER_SIZE - len(header))
        path = tmp_path / "x.elvt"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="shape overflow"):
            load_latent(path)

    def test_nonfinite_rejected(self, tmp_path):
        v = np.full((1, 1, 2, 2), np.inf)
        with pytest.raises(ValueError, match="finite"):
            save_latent(v, tmp_path / "x.elvt")

    def test_float32_overflow_rejected_before_writing(self, tmp_path):
        """A finite float64 entry beyond float32's range would be stored as
        inf under a valid header; it is refused and nothing is written."""
        v = np.zeros((1, 1, 2, 2))
        v[0, 0, 1, 0] = 1e39
        with pytest.raises(ValueError, match="finite in float32"):
            save_latent(v, tmp_path / "x.elvt")
        assert list(tmp_path.iterdir()) == []


class TestRenders:
    def parse_ppm(self, path):
        raw = path.read_bytes()
        magic, dims, maxval, rest = raw.split(b"\n", 3)
        w, h = map(int, dims.split())
        assert magic == b"P6" and maxval == b"255"
        return w, h, rest

    def test_frame_files_and_size(self, tmp_path, rng):
        v = rng.standard_normal((3, 4, 6, 5))
        paths = render_frames(v, tmp_path / "vid")
        assert len(paths) == 3
        for p in paths:
            w, h, pixels = self.parse_ppm(tmp_path / p.split("/")[-1])
            assert (w, h) == (5, 6)
            assert len(pixels) == 5 * 6 * 3

    def test_constant_video_is_uniform_gray(self, tmp_path):
        v = np.full((2, 1, 4, 4), 3.5)
        paths = render_frames(v, tmp_path / "c")
        for p in paths:
            _, _, pixels = self.parse_ppm(tmp_path / p.split("/")[-1])
            assert len(set(pixels)) == 1

    def test_deterministic(self, tmp_path, rng):
        v = rng.standard_normal((2, 3, 4, 4))
        a = render_frames(v, tmp_path / "a")
        b = render_frames(v, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert (tmp_path / pa.split("/")[-1]).read_bytes()[8:] == \
                   (tmp_path / pb.split("/")[-1]).read_bytes()[8:]

    def test_explicit_normalization(self, tmp_path):
        v = np.zeros((1, 1, 2, 2))
        v[0, 0, 0, 0] = 1.0
        paths = render_frames(v, tmp_path / "n", vmin=0.0, vmax=2.0)
        _, _, pixels = self.parse_ppm(tmp_path / paths[0].split("/")[-1])
        values = set(pixels)
        assert values == {0, 127}

    def test_unsupported_channels(self, tmp_path, rng):
        with pytest.raises(ValueError, match="unsupported channels"):
            render_frames(rng.standard_normal((1, 2, 4, 4)), tmp_path / "u")


class TestAtomicWrite:
    def test_failed_rename_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "x.elvt"
        target.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_latent(np.zeros((1, 1, 2, 2)), target)
        assert [p.name for p in tmp_path.iterdir()] == ["x.elvt"]
        assert target.read_bytes() == b"old"

    def test_writes_exact_bytes(self, tmp_path):
        write_atomic(tmp_path / "a.bin", b"payload")
        write_atomic(tmp_path / "a.bin", b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
        assert (tmp_path / "a.bin").read_bytes() == b"new"
