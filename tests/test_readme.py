"""The README's "Library use" snippet runs and prints the price it states.

The snippet is read from README.md itself, so a change to the pricer or to
the snippet that moves the printed price fails here, not in a reader's shell.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_snippet():
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_prints_the_stated_price():
    code = library_use_snippet()
    stated = re.search(r"#.*?(\d+\.\d+)\.\.\.", code).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == 1 and printed[0].startswith(stated), (printed, stated)
