"""The README's code runs against the package as it is."""

import argparse
import re
import shlex
from pathlib import Path

from hodsim.cli import DEFAULT_VALUE_GRIDS, build_parser
from hodsim.scenario import STRATEGY_KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_library_example_runs(capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```$", _section("Library"), re.MULTILINE | re.DOTALL)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    ho_rate, score_rate = map(float, capsys.readouterr().out.split())
    assert ho_rate > 0 and 0 < score_rate
    assert len(scope["report"].rows) == 3


def test_the_command_line_section_names_what_the_parser_takes():
    section = _section("Command line")
    (block,) = re.findall(r"^```bash\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("hodsim ")]
    assert [argv[1] for argv in commands] == ["run", "sweep", "compare", "validate"]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a ScenarioError names a stale flag or choice
    # argparse would also take a stale prefix such as --seed, so every flag
    # the section names must be an option of some verb exactly
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for p in verbs.choices.values() for a in p._actions for o in a.option_strings}
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section)) <= options
    # the --strategy bullet lists every kind, and the sweepable ones are those with a grid
    bullet = section.split("\n- `--strategy`", 1)[1].split("\n- ", 1)[0]
    assert set(re.findall(r"`([a-z_]+)`", bullet)) == set(STRATEGY_KINDS)
    assert set(DEFAULT_VALUE_GRIDS) == set(STRATEGY_KINDS) - {"none"}
