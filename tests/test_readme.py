"""The README's python code blocks run as written.

The blocks are the documented user flows, so they are executed verbatim,
in order, in one shared namespace (a later block may use a name an
earlier one defined, as a reader typing them into one session would).
"""

import os
import re

README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)


def test_python_blocks_run_in_order():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks, "README.md has no python code blocks"
    namespace = {"__name__": "__readme__"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
