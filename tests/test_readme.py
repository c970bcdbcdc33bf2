"""The README's ```python quick-start blocks, run as doctests.

Only the fenced blocks are parsed: run on the whole file, doctest would read
each closing fence as expected output of the example above it.
"""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
TEXT = README.read_text(encoding="utf-8")
# (line of the opening fence, block body) for each ```python block
BLOCKS = [(TEXT.count("\n", 0, m.start()) + 1, m.group(1)) for m in FENCE.finditer(TEXT)]


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("lineno, block", BLOCKS, ids=[f"line{ln}" for ln, _ in BLOCKS])
def test_readme_python_block_runs(lineno, block):
    test = doctest.DocTestParser().get_doctest(block, {}, f"README.md:{lineno}", str(README), lineno)
    assert test.examples, "a ```python block with no >>> example checks nothing"
    report = []
    result = doctest.DocTestRunner(verbose=False).run(test, out=report.append)
    assert result.failed == 0, "".join(report)
