"""tools/same_outputs.py names each file that is the same, differs or is missing."""

import importlib.util
from pathlib import Path

_SAME_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _load_same_outputs():
    spec = importlib.util.spec_from_file_location("tools_same_outputs", _SAME_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load_same_outputs().compare


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


_FILES = {"adaptive_rep0.csv": b"step,loss\n0,1.5\n", "run.stdout": b"ok\n",
          "sub/check.exit": b"0\n"}


def test_identical_trees_are_the_same(tmp_path):
    lines, same = compare(_tree(tmp_path / "a", _FILES), _tree(tmp_path / "b", _FILES))
    assert same
    assert lines == ["adaptive_rep0.csv: same (16 bytes)", "run.stdout: same (3 bytes)",
                     "sub/check.exit: same (2 bytes)"]


def test_one_changed_byte_is_located(tmp_path):
    changed = dict(_FILES, **{"adaptive_rep0.csv": b"step,loss\n0,1.6\n"})
    lines, same = compare(_tree(tmp_path / "a", _FILES), _tree(tmp_path / "b", changed))
    assert not same
    assert lines[0] == "adaptive_rep0.csv: differs at byte 14"
    assert lines[1:] == ["run.stdout: same (3 bytes)", "sub/check.exit: same (2 bytes)"]
    # a file that is a prefix of the other differs where the shorter one ends
    longer = dict(_FILES, **{"run.stdout": b"ok\nmore\n"})
    lines, same = compare(_tree(tmp_path / "c", _FILES), _tree(tmp_path / "d", longer))
    assert not same and "run.stdout: differs at byte 3" in lines


def test_a_missing_file_is_named_with_its_side(tmp_path):
    fewer = {k: v for k, v in _FILES.items() if k != "run.stdout"}
    lines, same = compare(_tree(tmp_path / "a", _FILES), _tree(tmp_path / "b", fewer))
    assert not same and "run.stdout: missing in change" in lines
    lines, same = compare(_tree(tmp_path / "c", fewer), _tree(tmp_path / "d", _FILES))
    assert not same and "run.stdout: missing in base" in lines
