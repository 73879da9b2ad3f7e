"""README.md's "Library quick start" block, run as written.

Every expression statement in the block carries a comment that opens with
its value, up to the first ": " or " = ": a rational such as ``6561/11264``
or a Python expression over ``Fraction``.  The test runs the block line by
line and compares each value, so the docs cannot drift from the code.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def quick_start():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated_value(comment):
    head = re.split(r": | = ", comment.strip(), maxsplit=1)[0]
    if RATIONAL.fullmatch(head):
        return Fraction(head)
    return eval(head, {"Fraction": Fraction})


def test_quick_start_values_are_what_the_code_returns():
    source = quick_start()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        line = lines[node.lineno - 1]
        assert "#" in line, f"quick start line states no value: {line!r}"
        value = eval(compile(code, "README.md", "eval"), namespace)
        assert value == stated_value(line.split("#", 1)[1]), line
        checked += 1
    assert checked == 4
