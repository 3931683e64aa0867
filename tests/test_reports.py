"""Pinned suite reports.

Every report is meant to be byte-identical for a given seed, so a refactor of
the exact layers must leave the stdout of ``glsw verify <suite> --seed S``
unchanged, for the default seed 0 and for seed 7.  Each suite runs in a fresh
interpreter, as a user would run it, must exit 0, and its stdout is compared
with the sha256 recorded when the digest was last deliberately changed.  A
report that changes on purpose updates its digest here in the same commit.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import glsw

SRC = os.path.dirname(os.path.dirname(os.path.abspath(glsw.__file__)))

DIGESTS = {
    ("catalog", 0): "b403f4af57ee7e36351607df1cd942c1428beec2686c0a2eb3fa02828d02e495",
    ("bc1", 0): "cd80ef845a8f0110ab056dd904c35b172336f10c481c26c6bfe813abae3c086b",
    ("family", 0): "781e6c938928a9e1cf43fe4f883ee4247f058707de404b71db26b1ebd0e272af",
    ("stability", 0): "58c81b8a6ea22b0d7366273767c7af2be4e5e1ea5b5b3dc103c249ec084d1c2c",
    ("euler", 0): "268d605efa8d839afc8488387e6a60a748b25e90297f8b0fd5ab68e345201d6b",
    ("decomposition", 0): "5db9257b9c59fd295817212ff911dfc3312bae52d27741e453b978d7e5f2830e",
    ("tubes", 0): "c665840a565eadab451817b618a7726e9f6bb6cf5beeb586a79105b961c80861",
    ("null-family", 0): "4711b5eca9ff79183e1dc6257eeb23e56e3454e75b614807d1aefc04973048cf",
    ("catalog", 7): "7dbe4c3763fe92cdd1533699c5a22b8e5c57bdff04ba93c897f779171cba552e",
    ("bc1", 7): "481d4ce23fb9feda8bfbf50a22f9a91f4c592f0fc1a25bfc5ef3973e42982a38",
    ("family", 7): "de9c2a48216fa467913173e3b222c3094f740d6c8ea91766c61dbe4ce9632ec8",
    ("stability", 7): "d978bb449bafee473e0a9548d586955c3fe5cbfd1385f9292ec1b831ae620ee8",
    ("euler", 7): "d38bde245cda6b4cc0841c17a415b193fda2c0fc803b7a8f03583ae249ecf900",
    ("decomposition", 7): "55c40b59528efcc7368a4070af01abc16754c6edff6cd8291a02f2a09e9b10e7",
    ("tubes", 7): "3c1ed3b48b8b3c69dd3fc3be3efc36a09b2b49d8fdd5dc3b310b8af1d6f738b0",
    ("null-family", 7): "5a1282984ee6bace697b40542b122e8a7325cfdbbd8b037cf71b1ef850c57be3",
}


@pytest.mark.parametrize(
    "suite, seed",
    # a seed-0 case keeps the bare suite name as its id
    [
        pytest.param(suite, seed, id=suite if seed == 0 else f"{suite}-seed{seed}")
        for suite, seed in sorted(DIGESTS)
    ],
)
def test_report_is_pinned(suite, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "glsw.cli", "verify", suite, "--seed", str(seed)],
        capture_output=True,
        env=env,
        check=False,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[suite, seed]
