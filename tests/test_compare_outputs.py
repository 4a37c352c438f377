"""The byte battery of tools/compare_outputs.py is well-formed.

The tool runs only by hand, so a battery command that no longer parses
would show up only as a usage error that both trees print alike. Every
command must parse as `recurweight` reads it, apart from the battery's
usage errors, which must be refused with exit 2, and its `--help`
pages, which exit 0. The docstring's command count must match the
battery. No command is run.
"""

import importlib.util
import re
from pathlib import Path

from recurweight.cli import parse_args

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def test_battery_parses_and_matches_its_docstring(capsys):
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    battery = tool.battery()
    exits = {}
    for command in battery:
        try:
            parse_args(command)
        except SystemExit as exc:
            exits[" ".join(command)] = exc.code
    capsys.readouterr()
    helps = [command for command in battery if command[-1] == "--help"]
    assert len(helps) == 4
    assert exits == {**{" ".join(c): 2 for c in tool.USAGE_ERRORS},
                     **{" ".join(c): 0 for c in helps}}
    stated = re.search(r"The battery has (\d+) commands", tool.__doc__)
    assert int(stated.group(1)) == len(battery)
