"""README's "Library use" block, run as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the block's relative error read 0.129420 with BLAS at one thread and at
# two; the bound leaves 8% for rounding, and fails a block that recovers worse
LIBRARY_ERROR_BOUND = 0.14


def test_library_use_block_runs_and_recovers_the_potential():
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library use\n\n```python\n(.*?)^```$", text, re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    [printed] = out.getvalue().splitlines()
    assert 0.0 < float(printed) < LIBRARY_ERROR_BOUND
