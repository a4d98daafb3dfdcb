"""`scripts/mask_events.py` compares event logs with every digest masked:
a change of digests alone leaves the masked streams equal, any other change
is reported at its first record, and a file it cannot read is a usage
error."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "mask_events.py"
GOLDEN = ROOT / "tests" / "golden" / "network-partition.events.jsonl"


def compare(old: pathlib.Path, new: pathlib.Path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def rewrite(tmp_path, name, edit) -> pathlib.Path:
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    for i, rec in enumerate(records):
        edit(i, rec)
    out = tmp_path / name
    out.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records))
    return out


def test_golden_equals_itself():
    code, out = compare(GOLDEN, GOLDEN)
    assert code == 0 and "equal: 12 records" in out


def test_changed_digests_are_masked(tmp_path):
    def new_digests(i, rec):
        rec["payload"]["hash"] = f"{i:064x}"

    moved = rewrite(tmp_path, "moved.jsonl", new_digests)
    assert moved.read_bytes() != GOLDEN.read_bytes()
    assert compare(GOLDEN, moved)[0] == 0


def test_first_non_digest_difference_reported(tmp_path):
    def later(i, rec):
        if i >= 4:
            rec["t"] += 1

    code, out = compare(GOLDEN, rewrite(tmp_path, "later.jsonl", later))
    assert code == 1
    assert "record 5" in out and '"t":2000' in out and '"t":2001' in out


def test_missing_records_reported(tmp_path):
    short = tmp_path / "short.jsonl"
    short.write_text("".join(GOLDEN.read_text().splitlines(keepends=True)[:10]))
    code, out = compare(GOLDEN, short)
    assert code == 1 and "record 11" in out and "new: (none)" in out


def test_unreadable_file_is_a_usage_error(tmp_path):
    """A path that cannot be read exits 2, the usage-error code, and never
    1, which says the streams differ."""
    missing = tmp_path / "missing.jsonl"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(GOLDEN), str(missing)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() == f"cannot read {missing}: No such file or directory"
