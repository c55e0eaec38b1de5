import errno
import importlib
import os
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fedleak
from fedleak import reporting
from fedleak.reporting import write_pgm

# every fedleak module that declares __all__ (the CLI module does not)
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(fedleak.__path__, "fedleak.")
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_public_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


class TestWritePgm:
    # 127.5 rounds half to even, to 128 (0.5 * 255 = 127.5 exactly);
    # values below 0 and above 1 clip to 0 and 255
    PIXELS = np.array([[0.0, 0.5, 1.0], [-0.25, 1.75, 1 / 255]])
    TEXT = b"P2\n3 2\n255\n0 128 255\n0 255 1\n"

    def images(self, directory):
        # d.pgm repeats b.pgm, but its directory does not exist when the
        # link is tried: the link fails and d.pgm is written alone
        other = self.PIXELS[::-1]
        return {
            directory / "a.pgm": self.PIXELS,
            directory / "b.pgm": other,
            directory / "c.pgm": self.PIXELS.copy(),
            directory / "sub" / "d.pgm": other.copy(),
            directory / "e.pgm": self.PIXELS,
        }

    def test_exact_bytes(self, tmp_path):
        write_pgm({tmp_path / "image.pgm": self.PIXELS})
        assert (tmp_path / "image.pgm").read_bytes() == self.TEXT

    def test_equal_images_share_one_file(self, tmp_path):
        images = self.images(tmp_path)
        write_pgm(images)
        inode = {path.name: path.stat().st_ino for path in images}
        assert inode["a.pgm"] == inode["c.pgm"] == inode["e.pgm"] != inode["b.pgm"]
        assert inode["d.pgm"] not in (inode["a.pgm"], inode["b.pgm"])
        assert (tmp_path / "a.pgm").stat().st_nlink == 3
        assert (tmp_path / "c.pgm").read_bytes() == self.TEXT

    def test_rewrite_keeps_bytes_and_leaves_no_temporary_file(self, tmp_path):
        images = self.images(tmp_path)
        write_pgm(images)
        before = {path: path.read_bytes() for path in images}
        write_pgm(images)
        assert {path: path.read_bytes() for path in images} == before
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == sorted(
            path.name for path in images
        )

    def test_failed_link_writes_the_path_alone(self, tmp_path, monkeypatch):
        linked = self.images(tmp_path / "linked")
        write_pgm(linked)

        def no_link(*args, **kwargs):
            raise OSError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(reporting.os, "link", no_link)
        written = self.images(tmp_path / "written")
        write_pgm(written)
        assert len({path.stat().st_ino for path in written}) == len(written)
        for path, twin in zip(written, linked):
            assert path.is_file() and not path.is_symlink() and path.stat().st_nlink == 1
            assert path.read_bytes() == twin.read_bytes()

    @pytest.fixture
    def formatted(self, monkeypatch):
        """The pixel arrays write_pgm formats, in call order."""
        calls = []
        pgm_text = reporting._pgm_text

        def counted(path, pixels):
            calls.append(pixels.copy())
            return pgm_text(path, pixels)

        monkeypatch.setattr(reporting, "_pgm_text", counted)
        return calls

    def test_each_distinct_array_is_formatted_once(self, tmp_path, formatted):
        write_pgm(self.images(tmp_path))
        # a, c and e hold PIXELS; b and d its rows reversed
        assert len(formatted) == 2
        assert np.array_equal(formatted[0], self.PIXELS)
        assert np.array_equal(formatted[1], self.PIXELS[::-1])

    def test_arrays_with_one_text_share_one_file(self, tmp_path, formatted):
        # every pixel moves by less than half a grey level
        images = {tmp_path / "a.pgm": self.PIXELS, tmp_path / "b.pgm": self.PIXELS + 1e-4}
        write_pgm(images)
        assert len(formatted) == 2
        assert (tmp_path / "a.pgm").stat().st_ino == (tmp_path / "b.pgm").stat().st_ino
        assert (tmp_path / "b.pgm").read_bytes() == self.TEXT

    def test_new_path_is_linked_straight_to_its_name(self, tmp_path, monkeypatch):
        links, replaced = [], []
        link, replace = os.link, os.replace

        def recorded_link(source, path):
            links.append(Path(path))
            link(source, path)

        def recorded_replace(source, path):
            replaced.append(Path(path))
            replace(source, path)

        monkeypatch.setattr(reporting.os, "link", recorded_link)
        monkeypatch.setattr(reporting.os, "replace", recorded_replace)
        a, b, c, d = (tmp_path / f"{name}.pgm" for name in "abcd")
        write_pgm({a: self.PIXELS, b: self.PIXELS[::-1], c: self.PIXELS, d: self.PIXELS})
        # os.replace only moves each distinct text's temporary file in
        assert links == [c, d]
        assert replaced == [a, b]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm", "c.pgm", "d.pgm"]

    @pytest.mark.parametrize(
        "pixels", [[[np.nan, 0.5], [np.inf, -np.inf]], [[0.5, 0.5], [0.5, np.nan]]]
    )
    def test_non_finite_pixel_writes_nothing(self, tmp_path, pixels):
        images = {tmp_path / "good.pgm": self.PIXELS, tmp_path / "bad.pgm": np.array(pixels)}
        with pytest.raises(ValueError, match="bad.pgm: pixels must be finite"):
            write_pgm(images)
        assert list(tmp_path.iterdir()) == []
