import re
import shlex
from pathlib import Path

from dpntk.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    # The first python block of the README is its library sketch; a renamed
    # or deleted name, or a refused budget, makes it fail here.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_sketch"})
    assert capsys.readouterr().out.strip()


def test_cli_block_runs(tmp_path, monkeypatch):
    # Every command of the README's CLI block exits 0; a flag that the
    # documented subcommand refuses fails here.
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    cli_block = next(b for b in blocks if b.startswith("dpntk "))
    commands = cli_block.replace("\\\n", " ").splitlines()
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DPNTK_SEED", raising=False)
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "dpntk"
        assert main(argv[1:]) == EXIT_OK, command
