"""Byte-for-byte golden digests of the benchmark artifacts.

Ten short specs cover every method with and without the consistency
term, the harmonic family, two inner steps with Adam and scored
meta-data, the fixed matrix with first-order adaptation, and a detached
matrix.  Each one writes `results.csv`, `log.jsonl`, `summary.txt`,
`matrix_epoch*.csv` and `config.txt`; their SHA-256 digests must equal
the ones in `golden_artifacts.json`.  The `out=` line of `config.txt`
names the temporary directory and is left out.

The digests belong to the numpy/BLAS build they were captured on: another
build may round differently and fail here without any code change.  A
change that moves the trajectories on purpose rewrites the fixture on
purpose, with `python tests/test_golden_artifacts.py --write [CASE ...]`
(only the named cases, or every case when none is named), and says so;
no other change touches it.  `--write` prints, for each case, the
artifacts whose digest changed.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import relmeta.harness as hz

FIXTURE = Path(__file__).with_name("golden_artifacts.json")

BASE = dict(hidden="8,8", batch_tasks="3", sim_heads="2", epochs="2",
            batches_per_epoch="4", runs="2", log_matrix_every="1", shots="5",
            queries="5", pool_size="16", eval_tasks="4", val_tasks="2",
            eval_inner_steps="3", seed="0")

CASES = {
    "maml-trl": dict(method="maml", trlearner="on"),
    "maml": dict(method="maml", trlearner="off"),
    "metasgd-trl": dict(method="metasgd", trlearner="on"),
    "metasgd": dict(method="metasgd", trlearner="off"),
    "anil-trl": dict(method="anil", trlearner="on"),
    "anil": dict(method="anil", trlearner="off"),
    "harmonic-trl": dict(dataset="harmonic"),
    "two-step-adam-scored": dict(inner_steps="2", optimizer="adam",
                                 metadata_strategy="scored", metadata_samples="4"),
    "fixed-first-order": dict(matrix_mode="fixed", second_order="false"),
    "detached-matrix": dict(matrix_grad_to_extractor="false"),
}


def artifact_digests(case: str, out: Path) -> dict:
    """Run one case into `out`; map each artifact's name to its SHA-256."""
    hz.run_benchmark(hz.parse_config(None, {**BASE, **CASES[case], "out": str(out)}))
    return digests_of(out)


def digests_of(out: Path) -> dict:
    """SHA-256 of each artifact in `out`, keyed by file name."""
    names = ["results.csv", "log.jsonl", "summary.txt", "config.txt"]
    names += sorted(p.name for p in out.glob("matrix_epoch*.csv"))
    digests = {}
    for name in names:
        data = (out / name).read_bytes()
        if name == "config.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"out="))
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, tmp_path):
    golden = json.loads(FIXTURE.read_text())
    assert artifact_digests(case, tmp_path) == golden[case]


def test_write_rewrites_only_named_cases(tmp_path, monkeypatch, capsys):
    fixture = tmp_path / "golden.json"
    fixture.write_text(FIXTURE.read_text())
    monkeypatch.setattr(sys.modules[__name__], "FIXTURE", fixture)
    before = json.loads(fixture.read_text())
    monkeypatch.setattr(sys.modules[__name__], "artifact_digests",
                        lambda case, out: {**before[case], "results.csv": f"new {case}"})
    write_fixture(["maml"])
    after = json.loads(fixture.read_text())
    assert after == {**before, "maml": {**before["maml"], "results.csv": "new maml"}}
    assert capsys.readouterr().out.splitlines()[0] == "maml: results.csv"
    with pytest.raises(SystemExit, match="unknown case"):
        write_fixture(["maml", "no-such-case"])
    assert json.loads(fixture.read_text()) == after


def write_fixture(cases) -> None:
    """Recompute the digests of `cases` (every case when empty) into the fixture."""
    import tempfile

    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    old = json.loads(FIXTURE.read_text())
    golden = dict(old) if cases else {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(set(cases) or CASES):
            golden[case] = artifact_digests(case, Path(tmp) / case)
            was = old.get(case, {})
            changed = sorted(n for n in golden[case].keys() | was.keys()
                             if golden[case].get(n) != was.get(n))
            print(f"{case}: {', '.join(changed) or 'unchanged'}")
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}: {', '.join(sorted(set(cases) or CASES))}")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python tests/test_golden_artifacts.py --write [CASE ...]")
    write_fixture(sys.argv[2:])
