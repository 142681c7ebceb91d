"""README's Library example, run as written, against the values its comments state."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_states_its_values():
    source = _library_block()
    lines = source.splitlines()
    namespace = {}
    stated = []
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        # the comment opens with the value, or with "those N pairs" for a bundle
        comment = lines[node.lineno - 1].split("#", 1)[1].strip()
        if m := re.match(r"those (\d+) pairs", comment):
            assert len(value) == int(m.group(1)) and all(isinstance(v, int) for v in value), comment
        else:
            assert repr(value) == comment.split()[0].rstrip(":"), comment
        stated.append(comment.split()[0])
    assert stated == ["926016", "15", "84", "those", "True:"]
