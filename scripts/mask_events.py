"""Compare two events.jsonl files with every digest masked.

    python3 scripts/mask_events.py OLD NEW

Every 64-hex-digit digest in both files is replaced by a placeholder, so a
change that moves only commitments (a new state commitment, say) leaves the
masked streams equal, while a change to `t`, `node`, `kind` or any other
payload field shows. Prints the first differing record, or that the masked
streams are equal, with the record counts. Exits 0 when they are equal, 1
when they differ, and 2 on a usage error or a file it cannot read.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

DIGEST = re.compile(r"\b[0-9a-f]{64}\b")
PLACEHOLDER = "<digest>"


def masked(path: str) -> list[str]:
    return [DIGEST.sub(PLACEHOLDER, line) for line in Path(path).read_text().splitlines()]


def first_difference(old: list[str], new: list[str]):
    """(line number, old record, new record) of the first difference, with
    None for a record one stream lacks; None when the streams are equal."""
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else None
        b = new[i] if i < len(new) else None
        if a != b:
            return i + 1, a, b
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    streams = []
    for path in argv:
        try:
            streams.append(masked(path))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
            return 2
    old, new = streams
    diff = first_difference(old, new)
    if diff is None:
        print(f"masked streams equal: {len(old)} records")
        return 0
    line, a, b = diff
    print(f"masked streams differ at record {line} ({len(old)} old, {len(new)} new records)")
    print(f"  old: {a if a is not None else '(none)'}")
    print(f"  new: {b if b is not None else '(none)'}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
