"""The README's Library example and CLI block run as written, on the bundled Iris file."""

import contextlib
import io
import re
import shlex
import shutil
from importlib.resources import files
from pathlib import Path

from xkmeans import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    shutil.copy(files("xkmeans").joinpath("data/iris.csv"), tmp_path / "iris.csv")
    monkeypatch.chdir(tmp_path)  # the example loads "iris.csv"
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(code, namespace)
    assert namespace["result"].tree.leaf_count == 12
    assert len(namespace["labels"]) == 150
    assert printed.getvalue().count("\n") > len(namespace["result"].trace)


def test_cli_block_runs(tmp_path, monkeypatch):
    block = re.search(r"```sh\n(.*?)```", README.read_text().split("\n## CLI\n", 1)[1], re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip() and not line.startswith("#")]
    commands = [shlex.split(line) for line in lines]
    assert [argv[:2] for argv in commands] == [["xkmeans", "run"], ["xkmeans", "run"], ["xkmeans", "explain"]]
    parsed = [cli._build_parser().parse_args(argv[1:]) for argv in commands]
    assert [args.data or args.synth for args in parsed[:2]] == ["iris.csv", "synthetic2"]
    # the synthetic2 command only parses: its 8,192 x 1,024 set is too slow for this suite
    shutil.copy(files("xkmeans").joinpath("data/iris.csv"), tmp_path / "iris.csv")
    monkeypatch.chdir(tmp_path)  # the commands read "iris.csv" and write "results/"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(commands[0][1:]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert cli.main(commands[2][1:]) == 0
    *conditions, label = printed.getvalue().splitlines()
    assert len(conditions) == 3 and all(line.startswith("feature ") for line in conditions)
    assert label == "label 1"
