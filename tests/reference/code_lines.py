"""Count the code lines of Python source files.

A code line is a line that holds a token other than a comment, a line
break (NL or NEWLINE), an indent or a dedent, and that is not part of a
docstring statement: a logical line made of string literals alone. A token
that spans several lines, such as a multi-line string in an expression,
holds each of them. The size reports in CHANGES.md and ROADMAP.md use this
count.

Run from the repository root:

    python tests/reference/code_lines.py            # every module of src/backflow
    python tests/reference/code_lines.py FILE...    # the given files

It prints one count per file and their total.
"""

from __future__ import annotations

import os
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of the current logical line
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not all(t.type == tokenize.STRING for t in statement):  # not a docstring
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in SKIPPED:
                statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parents[2]
    paths = [Path(a) for a in argv] or sorted((root / "src" / "backflow").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
