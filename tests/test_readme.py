"""The README's Python examples run as written."""

import pathlib
import re
import warnings

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.M | re.S)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_example_runs(code):
    # each block stands alone, and an overflow or inf - inf warning fails it
    # as it fails the rest of the suite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
