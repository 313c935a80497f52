"""The byte-identical contract: SHA-256 of the stdout of the rerouted commands.

The digests in contract_golden.json were taken before the routes behind
these commands changed; scripts/contract.py prints the same digests.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wittlink.cli import main

CONTRACT = json.loads(Path(__file__).with_name("contract_golden.json").read_text())


@pytest.mark.parametrize("case", CONTRACT, ids=lambda c: " ".join(c["argv"]))
def test_contract_digest(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(case["argv"]))
    assert (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == (case["code"], case["sha256"])
