import importlib
import re
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["linbreg", "linbreg.problems"])
def test_every_exported_name_resolves(module):
    # a stale __all__ entry makes ``from module import *`` raise
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_readme_library_use_block_runs(capsys):
    # the documented API must import and run as shown
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.rstrip().endswith("max_iter")


def test_readme_config_example_passes_check(tmp_path):
    # the example config, inline comments included, must validate as shown
    from linbreg.cli import main

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1]
    cfg = tmp_path / "example.cfg"
    cfg.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    assert main(["check", str(cfg)]) == 0
