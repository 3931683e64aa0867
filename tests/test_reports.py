"""Pinned suite reports.

Every report is meant to be byte-identical for a given seed, so a refactor of
the exact layers must leave the stdout of ``glsw verify <suite> --seed 0``
unchanged.  Each suite runs in a fresh interpreter, as a user would run it,
and its stdout is compared with the sha256 recorded when the digest was last
deliberately changed.  A report that changes on purpose updates its digest
here in the same commit.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import glsw

SRC = os.path.dirname(os.path.dirname(os.path.abspath(glsw.__file__)))

DIGESTS = {
    "catalog": "b403f4af57ee7e36351607df1cd942c1428beec2686c0a2eb3fa02828d02e495",
    "bc1": "cd80ef845a8f0110ab056dd904c35b172336f10c481c26c6bfe813abae3c086b",
    "family": "781e6c938928a9e1cf43fe4f883ee4247f058707de404b71db26b1ebd0e272af",
    "stability": "58c81b8a6ea22b0d7366273767c7af2be4e5e1ea5b5b3dc103c249ec084d1c2c",
    "euler": "268d605efa8d839afc8488387e6a60a748b25e90297f8b0fd5ab68e345201d6b",
    "decomposition": "5db9257b9c59fd295817212ff911dfc3312bae52d27741e453b978d7e5f2830e",
    "tubes": "c665840a565eadab451817b618a7726e9f6bb6cf5beeb586a79105b961c80861",
    "null-family": "4711b5eca9ff79183e1dc6257eeb23e56e3454e75b614807d1aefc04973048cf",
}


@pytest.mark.parametrize("suite", sorted(DIGESTS))
def test_report_is_pinned(suite):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "glsw.cli", "verify", suite, "--seed", "0"],
        capture_output=True,
        env=env,
        check=False,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[suite]
