"""The suite's own pytest settings: warnings that are errors must not hide a
failing property test's falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    text = out.stdout + out.stderr
    assert "INTERNALERROR" not in text
    assert "Falsifying example" in out.stdout
    assert out.returncode == 1, text
