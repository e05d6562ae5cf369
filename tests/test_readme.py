"""The README's library example runs against the installed package, and its
Library section names every export."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
INIT = ROOT / "src" / "qtangle" / "__init__.py"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_library_section_names_every_export():
    tree = ast.parse(INIT.read_text())
    exports = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    # A name counts where it is code: in backticks or in a python block.
    code = re.findall(r"```python\n(.*?)```|`([^`]+)`", section, flags=re.DOTALL)
    named = set(re.findall(r"[A-Za-z_]\w*", " ".join(a + b for a, b in code)))
    assert exports and not exports - named, sorted(exports - named)
