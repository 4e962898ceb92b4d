"""``--help`` of the top level and of every subcommand, against a committed copy.

``fixtures/help.txt`` holds each ``slotqa [command] --help`` at ``COLUMNS=80``,
under a ``$ slotqa [command] --help`` line. After a deliberate change to the
help text, write it again from the repository root with::

    export PYTHONPATH=src COLUMNS=80
    for c in '' $(python -c 'from slotqa.cli import OPERATIONS; print(*OPERATIONS)'); do
        echo "\\$ slotqa ${c:+$c }--help"; python -m slotqa $c --help
    done > tests/fixtures/help.txt
"""

import sys
from pathlib import Path

import pytest

from slotqa.cli import OPERATIONS, main

HELP = Path(__file__).parent / "fixtures" / "help.txt"


# Python 3.10.13, 3.11.7, 3.12.1 and 3.13.13 print the subcommands' bytes alike;
# 3.13's argparse lays out the top level's command column more widely, so only
# that block differs from the copy there
def test_help_is_the_committed_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rendered = []
    for argv in [["--help"], *([name, "--help"] for name in OPERATIONS)]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        rendered.append(f"$ slotqa {' '.join(argv)}\n{capsys.readouterr().out}")
    expected = HELP.read_text(encoding="utf-8")
    if sys.version_info >= (3, 13):
        del rendered[0]
        expected = expected[expected.index(rendered[0].partition("\n")[0]):]
    assert "".join(rendered) == expected
