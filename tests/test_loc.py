"""tools/loc.py's counting rule, on a fixture source."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# Code lines are marked "# code"; every other line is not one.
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # code


class Thing:  # code
    """Class docstring."""

    # A comment line.
    size = (  # code
        1 + 2  # code
    )  # code

    def method(self):  # code
        """Method
        docstring.
        """
        "a string statement that is not the first one"  # code
        text = """a string  # code
        over lines"""  # code
        return text  # code


async def run():  # code
    """Coroutine docstring."""
    return math.pi  # code
'''


def test_counts_every_line_and_the_marked_code_lines():
    marked = sum(line.endswith("# code") for line in FIXTURE.splitlines())
    assert marked == 12
    assert loc.count(FIXTURE) == (len(FIXTURE.splitlines()), marked)


def test_a_module_without_code_or_final_newline():
    assert loc.count("") == (0, 0)
    assert loc.count('"""Only a docstring."""') == (1, 0)
    assert loc.count("x = 1") == (1, 1)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     3 /      1  a.py",
        "    27 /     12  b.py",
        "    30 /     13  total",
    ]
