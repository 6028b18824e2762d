"""tools/untested_lines.py's allow-list still names code that exists.

The tool matches each ALLOWED entry to source text only after its whole
traced pytest pass. An entry that no longer resolves is caught here, in
well under a second.
"""

import importlib.util
import os
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" \
    / "untested_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("untested_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()


@pytest.mark.parametrize("module",
                         sorted({entry[0] for entry in tool.ALLOWED}))
def test_every_allowed_entry_resolves(module):
    path = os.path.join(tool.SRC, module)
    excused = tool.allowed_lines(path, tool.function_lines(path))
    # each entry excuses at least one line that a function body maps to
    assert set(excused.values()) \
        == {why for mod, *_, why in tool.ALLOWED if mod == module}


def test_a_stale_entry_is_refused(monkeypatch, tmp_path):
    path = tmp_path / "crypto.py"
    path.write_text("def sign():\n    return 1\n")
    lines = tool.function_lines(str(path))
    monkeypatch.setattr(tool, "ALLOWED", [
        ("crypto.py", "sign", "k = retry()", "k = retry()", "why")])
    with pytest.raises(LookupError, match="has no line"):
        tool.allowed_lines(str(path), lines)
    monkeypatch.setattr(tool, "ALLOWED", [
        ("crypto.py", "gone", None, None, "why")])
    with pytest.raises(LookupError, match="no function gone"):
        tool.allowed_lines(str(path), lines)
