"""The README's code runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", library, re.MULTILINE | re.DOTALL)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    ho_rate, score_rate = map(float, capsys.readouterr().out.split())
    assert ho_rate > 0 and 0 < score_rate
    assert len(scope["report"].rows) == 3
