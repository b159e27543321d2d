import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    # The first python block of the README is its library sketch; a renamed
    # or deleted name, or a refused budget, makes it fail here.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_sketch"})
    assert capsys.readouterr().out.strip()
