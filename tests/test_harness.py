import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_failing_property(x):
    assert x < 0


def test_other_deprecation_still_fails():
    warnings.warn("some library API is deprecated", DeprecationWarning)


def test_passing():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    # reporting a falsified hypothesis property imports libcst, which warns a
    # DeprecationWarning from mypy_extensions; the ini filters must let the report
    # finish and the session go on, while any other DeprecationWarning still fails
    (tmp_path / "test_pair.py").write_text(PAIR)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "2 failed, 1 passed" in out.stdout
