"""The test settings of pyproject.toml keep a failing property test readable.

`filterwarnings = ["error"]` turns every warning into an error, also the
ones raised inside pytest's plugins.  When a `@given` test fails, the
hypothesis plugin's teardown imports `mypy_extensions`, whose deprecated
`TypedDict` warns; as an error that would end the whole run in INTERNALERROR
instead of listing the failure.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10))
def test_always_fails(n):
    assert n < 0
'''


def test_a_failing_property_test_reports_its_example_under_the_repo_settings(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(FAILING)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "Falsifying example" in text
    assert "INTERNALERROR" not in text
