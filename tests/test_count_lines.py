"""The code-line counter in ``tools/count_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts as its code line

#: an attribute comment
LIMIT = 3
"""An attribute docstring."""


def f(x):
    """Function docstring."""
    # a comment line

    text = """a multi-line
    string that is not a docstring"""
    return (x +
            math.pi, text)
'''


def test_counts_lines_where_a_token_starts_outside_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, LIMIT, def, text = (first line only), return, its continuation
    assert count_lines.code_lines(path) == 6


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\ny = [\n    2,\n]\n')
    assert count_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "3", "4"]
    assert lines[-1].split()[1] == "total"
