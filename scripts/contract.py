"""Print the SHA-256 of every stdout pinned in tests/contract_golden.json.

    PYTHONPATH=src python3 scripts/contract.py

Each pinned command runs through ``wittlink.cli.main`` in this process;
one line per command gives its digest, its exit code, ``ok`` or ``DIFF``
against the pinned digest, and its argv.  Exits 1 when any digest or exit
code differs.  The same commands and digests are checked by
tests/test_contract.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "contract_golden.json"


def digest(argv: list[str]) -> tuple[int, str]:
    """Exit code and SHA-256 of stdout for one in-process CLI run."""
    from wittlink.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> int:
    same = True
    for case in json.loads(GOLDEN.read_text()):
        code, sha = digest(case["argv"])
        ok = (code, sha) == (case["code"], case["sha256"])
        same &= ok
        print(f"{sha}  {code}  {'ok' if ok else 'DIFF'}  {' '.join(case['argv'])}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
