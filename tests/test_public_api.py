"""The documented surface: the names ``rsr`` exports and the README's library example."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import rsr

README = Path(__file__).resolve().parents[1] / "README.md"

# the paper's one-hot layout is test ground truth in rsr.oracle, not library API
REMOVED = ("encode_sample", "encode_lower_ref", "encode_upper_ref", "violation_counts")


def test_every_exported_name_resolves():
    assert len(set(rsr.__all__)) == len(rsr.__all__)
    for name in rsr.__all__:
        assert getattr(rsr, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_one_hot_names_are_gone(name):
    assert name not in rsr.__all__
    assert not hasattr(rsr, name)
    for module in ("rsr.encoding", "rsr.classify"):
        assert not hasattr(importlib.import_module(module), name)


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    p_lower, cov_lower = (float(v) for v in out.getvalue().split())
    # 3-component series at 10% failure each: P(S = 0) = 1 - 0.9**3 = 0.271
    assert p_lower == pytest.approx(0.271, abs=0.005)
    assert 0 < cov_lower < 0.01
