"""The byte comparison of two checkouts' run artifacts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "samebytes.py"
_spec = importlib.util.spec_from_file_location("samebytes", TOOL)
samebytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebytes)


def test_identical_files_exit_0_and_one_changed_byte_exits_1(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
        (d / "results.csv").write_bytes(b"seed,mse_mean\n5,3.5125\n")
        (d / "log.jsonl").write_bytes(b'{"epoch": 0, "val_mse": 1.25}\n')
        (d / "summary.txt").write_bytes(b"maml: mse 3.5125\n")
        (d / "config.txt").write_bytes(f"lam=0.6\nout={d}\nseed=5\n".encode())
    # the out= line alone differs: each run names its own directory
    assert samebytes.compare(parent, change) == 0
    (change / "log.jsonl").write_bytes(b'{"epoch": 0, "val_mse": 1.26}\n')
    assert samebytes.compare(parent, change) == 1
    assert "log.jsonl" in capsys.readouterr().out
    (change / "log.jsonl").write_bytes((parent / "log.jsonl").read_bytes())
    (change / "summary.txt").write_bytes(b"maml: mse 3.5126\n")
    assert samebytes.compare(parent, change) == 1
    assert "summary.txt" in capsys.readouterr().out
