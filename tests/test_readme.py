"""The python code blocks of README.md and docs/*.md run as written.

The blocks are the documented user flows, so they are executed verbatim,
in order, in one shared namespace per file (a later block may use a name
an earlier one defined, as a reader typing them into one session would).
"""

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def _python_blocks(path):
    with open(path, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)


def _run_in_order(path, blocks):
    name = os.path.relpath(path, ROOT)
    namespace = {"__name__": "__doc_snippet__"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"{name} python block {i}", "exec"), namespace)


#: every docs page that carries python blocks (a page gaining one is
#: collected automatically)
DOCS = [
    p for p in sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    if _python_blocks(p)
]


def test_python_blocks_run_in_order():
    blocks = _python_blocks(README)
    assert blocks, "README.md has no python code blocks"
    _run_in_order(README, blocks)


@pytest.mark.parametrize("path", DOCS, ids=[os.path.basename(p) for p in DOCS])
def test_docs_python_blocks_run_in_order(path):
    _run_in_order(path, _python_blocks(path))
