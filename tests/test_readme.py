"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    epoch, best_test_error = capsys.readouterr().out.split()
    assert 1 <= int(epoch) <= 60 and 0.0 <= float(best_test_error) <= 1.0
