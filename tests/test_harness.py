import ast
import re
import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "fracmle"

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


def test_package_imports_only_declared_dependencies():
    # every third-party top-level import in the package is a runtime dependency,
    # so a test-only library (SciPy, mpmath, hypothesis) cannot creep back in
    with PYPROJECT.open("rb") as fh:
        deps = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "fracmle":
                    imported.setdefault(top, path.name)
    assert imported and set(imported) <= deps, imported
