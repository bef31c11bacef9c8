"""The README's library quick start runs, and does what its comments say."""

import math
import pathlib
import re

import pytest

from vblab import sequence_model

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The one python block under the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"expected one python block in the quick start, found {len(blocks)}"
    return blocks[0]


def test_library_quick_start_runs_as_documented():
    scope = {}
    exec(compile(quick_start(), f"{README}:quick start", "exec"), scope)
    post, eb = scope["post"], scope["eb"]
    assert post.tilts.shape == (post.k, 2)
    assert eb.p == 0
    assert math.isfinite(scope["risk"])
    want = sequence_model.vb_objective(scope["prior"], scope["obs"], post.k, "vb")
    assert scope["gap"] == pytest.approx(want, abs=1e-8)
