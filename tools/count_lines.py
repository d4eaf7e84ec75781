"""Count code lines of Python modules: lines where a token starts, outside comments and docstrings.

A docstring is a string literal that forms a whole statement on its own,
such as the first statement of a module, class or function, or the
attribute docstring under an assignment.  Blank lines, comment lines and
continuation lines that start no token do not count.

Usage::

    python tools/count_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively; the default
is ``src/chshd``.  Prints one count per module and the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code; ``NEWLINE`` is kept apart, since it ends a statement.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` on which a code token starts."""
    with tokenize.open(path) as handle:
        tokens = [t for t in tokenize.generate_tokens(handle.readline) if t.type not in _LAYOUT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        statement_start = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        statement_end = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and statement_start and statement_end:
            continue  # a docstring
        lines.add(tok.start[0])
    return len(lines)


def modules(paths: list[Path]) -> list[Path]:
    return sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))


def main(argv: list[str]) -> int:
    total = 0
    for path in modules([Path(a) for a in argv] or [Path("src/chshd")]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
