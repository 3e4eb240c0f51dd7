"""The bundled documents are exactly what ``scripts/make_bundled_examples.py``
writes."""

from __future__ import annotations

import importlib.util
import os

from routedcircuits.io import bundled_path

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_bundled_examples.py")


def test_regenerated_documents_are_byte_identical(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_bundled_examples", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", str(tmp_path))
    script.main()
    bundled_dir = os.path.dirname(bundled_path("diamond.json"))
    bundled = sorted(n for n in os.listdir(bundled_dir) if n.endswith(".json"))
    assert sorted(os.listdir(tmp_path)) == bundled
    for name in bundled:
        with open(os.path.join(bundled_dir, name), "rb") as want:
            assert (tmp_path / name).read_bytes() == want.read(), name
