"""The README's Library example runs as written, on the bundled Iris file."""

import contextlib
import io
import re
import shutil
from importlib.resources import files
from pathlib import Path

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
