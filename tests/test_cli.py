import json
import random

import pytest

from glsw import cli
from glsw.quivers import catalog_affine
from glsw.suites import CATALOG_REPRESENTATIVES, SUITES, split_seed


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_report(capsys):
    code, out = run(capsys, "catalog", "BC1")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["null_root"] == [1, 2]
    assert report["tier"] == 2
    assert report["defect_weight"] == ["-1", "2"]
    assert report["coxeter"] == [[-1, 1], [-4, 3]]


def test_catalog_with_rank(capsys):
    code, out = run(capsys, "catalog", "C", "2")
    assert code == 0
    assert json.loads(out)["null_root"] == [1, 2, 1]


def test_unknown_family_is_usage_error(capsys):
    code, _ = run(capsys, "catalog", "X9")
    assert code == 2


def test_unknown_suite_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "nosuch")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_removed_primes_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "stability", "--primes", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "BC1", "--caps", "dim=3"),
        ("catalog", "BC1", "--seed", "1"),
        ("decompose", "BC1", "-v", "2,4", "--caps", "dim=3"),
        ("verify", "catalog", "--caps", "dim=3"),
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


def test_verify_passes_only_the_caps_given(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(
        cli.suites, "run_suite", lambda name, config: seen.append(config) or {"passed": True}
    )
    assert run(capsys, "verify", "stability", "--seed", "4", "--caps", "enum=9")[0] == 0
    assert run(capsys, "verify", "stability", "--seed", "4")[0] == 0
    # caps not given fall back to stability.DEFAULT_CONFIG
    assert seen == [{"seed": 4, "enum_cap": 9}, {"seed": 4}]


def test_verify_stability_under_a_small_dimension_cap_reports(capsys):
    code, out = run(capsys, "verify", "stability", "--caps", "dim=3")
    assert code == 1
    report = json.loads(out)
    assert report["suite"] == "stability" and not report["passed"]
    # the six-dimensional members are beyond the cap; the boundary module is not
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "member-1-stable:p3" in failed
    assert "boundary-stable:p3" not in failed


def test_decompose_oracle(capsys):
    code, out = run(capsys, "decompose", "BC1", "-v", "2,4")
    assert code == 0
    report = json.loads(out)
    assert report["certified"]
    assert report["m"] == 2
    assert report["w"] == [0, 0]
    assert "seeds" not in report  # the decomposition is exact
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "BC1", "-v", "2,4", "--seed", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "family, rank", CATALOG_REPRESENTATIVES, ids=[f"{f}{r or ''}" for f, r in CATALOG_REPRESENTATIVES]
)
def test_decompose_every_catalog_family(capsys, family, rank):
    q = catalog_affine(family, rank)
    rng = random.Random(f"decompose:{family}:{rank}")
    v = [rng.randrange(0, 5) for _ in range(q.n)]
    argv = ["decompose", family] + ([str(rank)] if rank else []) + ["-v", ",".join(map(str, v))]
    code, out = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["w"] == [a - report["m"] * e for a, e in zip(v, q.null_root())]


def test_decompose_vector_length_checked(capsys):
    code, _ = run(capsys, "decompose", "BC1", "-v", "1,2,3")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("catalog", "ZZ"), "unknown family 'ZZ'"),
        (("decompose", "BC1", "-v", "1,2,3"), "vector length 3 does not match 2 vertices"),
        (("verify", "nosuch"), "unknown suite 'nosuch' (choose from bc1, catalog,"),
    ],
    ids=["catalog", "decompose", "verify"],
)
def test_usage_errors_go_to_stderr(capsys, argv, message):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_decompose_a_real_root_far_up_the_series(capsys):
    # tau^{-6000} P_1 of BC1: its rank takes about 12,000 reflections to reduce
    code, out = run(capsys, "decompose", "BC1", "-v", "12001,24000")
    assert code == 0
    report = json.loads(out)
    assert report["certified"]
    assert (report["m"], report["w"]) == (0, [12001, 24000])
    assert report["summands"] == [{"class": [12001, 24000], "multiplicity": 1}]


def test_verify_passes_and_is_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "catalog", "--seed", "3")
    code2, out2 = run(capsys, "verify", "catalog", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    assert report["schema"] == 1
    assert report["checks"]


def test_seed_defaults_to_zero(capsys, monkeypatch):
    # --seed is the one way to set the seed; the environment is not read
    monkeypatch.setenv("GLSW_SEED", "41")
    _, out = run(capsys, "verify", "null-family")
    assert json.loads(out)["seed"] == 0


def test_tsv_output(capsys):
    code, out = run(capsys, "catalog", "A1", "--format", "tsv")
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["schema"] == "1"
    assert rows["null_root.0"] == "1"
    assert rows["null_root.1"] == "1"


def test_seed_splitter_separates_streams():
    a = split_seed(0, "one")
    b = split_seed(0, "two")
    c = split_seed(1, "one")
    assert len({a, b, c}) == 3
    assert all(0 <= x < 2**64 for x in (a, b, c))
    assert split_seed(0, "one") == a


def test_all_suites_have_runners():
    assert sorted(SUITES) == [
        "bc1",
        "catalog",
        "decomposition",
        "euler",
        "family",
        "null-family",
        "stability",
        "tubes",
    ]
