"""Command-line interface: exit codes, determinism, configuration."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qchar import casorati, characters, tableaux
from qchar.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_character_golden_match(capsys):
    code, out, _ = run_cli(["character", "--rank", "2",
                            "--fundamental", "1"], capsys)
    assert code == 0
    assert out == (GOLDEN / "fundamental_r2_a1.txt").read_text()
    code, out, _ = run_cli(["character", "--rank", "2",
                            "--fundamental", "2"], capsys)
    assert code == 0
    assert out == (GOLDEN / "fundamental_r2_a2.txt").read_text()


def test_character_trivial_and_json(capsys):
    code, out, _ = run_cli(["character", "--rank", "2", "--fundamental",
                            "0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["monomials"] == 1 and payload["text"] == "1"


def test_character_rect_with_zero_rows_is_one(capsys):
    # T^(0)_M = 1, whose leading monomial is the empty one
    for m in ("0", "2"):
        argv = ["character", "--rank", "2", "--rect", "0", m]
        assert run_cli(argv, capsys) == (0, "1\n", "")
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["label"] == ["rect", 0, int(m)]
        assert payload["text"] == "1" and payload["monomials"] == 1
        assert payload["highest_weight_present"] is True


def test_character_requires_exactly_one_kind(capsys):
    code, _, err = run_cli(["character", "--rank", "2"], capsys)
    assert code == 2
    code, _, err = run_cli(["character", "--rank", "2", "--fundamental",
                            "1", "--row", "2"], capsys)
    assert code == 2


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run_cli(["verify", "cancellation", "--rank", "2"],
                           capsys)
    assert code == 0
    assert "[PASS]" in out and "suite ok" in out


def test_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "nosuch", "--rank", "2"]) == 2


def test_missing_rank_is_usage_error(capsys):
    code, _, err = run_cli(["verify", "cancellation"], capsys)
    assert code == 2


def test_bijection_needs_rank3(capsys):
    code, _, _ = run_cli(["verify", "bijection", "--rank", "2"], capsys)
    assert code == 2
    code, _, _ = run_cli(["verify", "bijection", "--rank", "3"], capsys)
    assert code == 0


def test_report_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = main(["verify", "hookchi", "--rank", "2", "--seed", "9",
                     "--format", "json", "--out", str(out)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_env_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=2\nseed=5\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    # config provides rank and seed
    assert main(["verify", "hookchi", "--config", str(cfg), "--format",
                 "json", "--out", str(out1)]) == 0
    assert json.loads(out1.read_text())["params"]["seed"] == 5
    # flag overrides config
    assert main(["verify", "hookchi", "--config", str(cfg), "--seed",
                 "7", "--format", "json", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["params"]["seed"] == 7
    # env is lowest priority but used when nothing else is given
    monkeypatch.setenv("QCHAR_SEED", "13")
    out3 = tmp_path / "r3.json"
    assert main(["verify", "hookchi", "--rank", "2", "--format", "json",
                 "--out", str(out3)]) == 0
    assert json.loads(out3.read_text())["params"]["seed"] == 13


def test_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rank 2\n")
    assert main(["verify", "cancellation", "--config", str(cfg)]) == 2
    # a key outside rank, algebra, seed, order, max_m is refused by name,
    # the flag spelling max-m included
    for line in ("max-m=0", "rnak=9", "suite=tsystem"):
        cfg.write_text(f"rank=2\n{line}\n")
        code, _, err = run_cli(["verify", "product-formula", "--config",
                                str(cfg)], capsys)
        key = line.split("=")[0]
        assert code == 2 and err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("argv", [
    ["character", "--rank", "2", "--fundamental", "1"],
    ["verify", "cancellation", "--rank", "2"]])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt"
    code, _, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 2 and err.startswith(f"error: cannot write {out}")


def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(tableaux, "verify_cancellation",
                        lambda n, a: calls.append((n, a)))
    out = tmp_path / "missing" / "x.txt"
    code, _, err = run_cli(["verify", "cancellation", "--rank", "2",
                            "--out", str(out)], capsys)
    assert code == 2 and err.startswith(f"error: cannot write {out}")
    assert calls == []


def test_out_survives_an_internal_error(tmp_path, monkeypatch):
    def broken(n, a):
        raise RuntimeError("suite failed")

    monkeypatch.setattr(tableaux, "verify_cancellation", broken)
    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_bytes(b"an earlier report\n")
    for out in (kept, new):
        with pytest.raises(RuntimeError):
            main(["verify", "cancellation", "--rank", "2", "--out", str(out)])
    # the existing file keeps its bytes; the check leaves no new file
    assert kept.read_bytes() == b"an earlier report\n"
    assert not new.exists()


def test_operator_command(capsys):
    code, out, _ = run_cli(["operator", "--rank", "2", "--form",
                            "zFactored"], capsys)
    assert code == 0 and "D^6" in out
    code, _, _ = run_cli(["operator", "--rank", "2", "--form", "bogus"],
                         capsys)
    assert code == 2


def test_operator_series(capsys):
    code, out, _ = run_cli(["operator", "--rank", "2", "--algebra", "B",
                            "--order", "4"], capsys)
    assert code == 0 and "D^4" in out


def test_bd_command(capsys):
    code, out, _ = run_cli(["bd", "--algebra", "B", "--rank", "2",
                            "--order", "6"], capsys)
    assert code == 0 and "[PASS]" in out
    code, out, _ = run_cli(["bd", "--algebra", "B", "--rank", "2",
                            "--order", "6", "--emit", "coeffs"], capsys)
    assert code == 0 and "T^1(u)" in out
    assert main(["bd", "--rank", "2"]) == 2


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "qchar.cli", "character", "--rank", "2",
         "--fundamental", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "fundamental_r2_a1.txt").read_text()


def test_explicit_zero_max_m_is_honoured(capsys):
    code, out, _ = run_cli(["verify", "tt-tq", "--rank", "2", "--max-m", "0",
                            "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["params"]["max_m"] == 0
    assert len(payload["checks"]) == 3  # two convolutions at m=0, Baxter


def test_negative_bounds_are_usage_errors(capsys):
    assert main(["verify", "product-formula", "--rank", "2",
                 "--max-m", "-1"]) == 2
    for order in ("-2", "0", "1"):
        assert main(["verify", "lemma-exp", "--algebra", "B", "--rank", "2",
                     "--order", order]) == 2
    assert main(["verify", "lemma-exp", "--algebra", "D", "--rank", "3",
                 "--order", "1"]) == 2


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    # only argument validation exits 2; a KeyError or ValueError raised
    # inside a suite is an internal error and propagates
    def broken(rank, seed):
        raise KeyError("no assignment for Q[1](u)")

    monkeypatch.setattr(casorati, "run_suite", broken)
    with pytest.raises(KeyError):
        main(["verify", "casorati", "--rank", "2"])
    monkeypatch.setattr(casorati, "run_suite",
                        lambda rank, seed: int("not a number"))
    with pytest.raises(ValueError):
        main(["verify", "casorati", "--rank", "2"])


def test_bad_arguments_are_usage_errors(capsys):
    for argv in (["character", "--rank", "1", "--fundamental", "1"],
                 ["character", "--rank", "2", "--row", "-1"],
                 ["character", "--rank", "2", "--rect", "3", "1"],
                 ["character", "--rank", "2", "--hseries", "6", "7"],
                 ["character", "--rank", "2", "--hseries", "1", "-1"],
                 ["operator", "--rank", "2", "--algebra", "D"],
                 ["operator", "--rank", "2", "--algebra", "B",
                  "--order", "1"],
                 ["bd", "--algebra", "B", "--rank", "2", "--order", "0"],
                 ["verify", "cancellation", "--rank", "0"],
                 ["verify", "bd", "--algebra", "B", "--rank", "2",
                  "--order", "1"],
                 ["verify", "lemma-exp", "--algebra", "D", "--rank", "2"],
                 ["verify", "cancellation", "--rank", "2", "--algebra", "B"],
                 ["verify", "tsystem", "--rank", "2", "--algebra", "D"],
                 ["verify", "cancellation", "--rank", "2", "--max-m", "5"],
                 ["verify", "tsystem", "--rank", "2", "--order", "5"],
                 ["verify", "casorati", "--rank", "2", "--max-m", "1"]):
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and err.startswith("error: "), argv


def test_unused_bound_flags_are_refused(tmp_path, capsys):
    assert run_cli(["verify", "tsystem", "--rank", "2", "--order", "5"],
                   capsys) == (2, "", "error: tsystem suite does not read "
                                      "--order\n")
    assert run_cli(["verify", "bd", "--algebra", "B", "--rank", "2",
                    "--max-m", "3"], capsys) == (
        2, "", "error: bd suite does not read --max-m\n")
    # every command refuses the bounds it does not read
    for argv, err in (
            (["character", "--rank", "2", "--fundamental", "1", "--order",
              "5"], "character does not read --order"),
            (["character", "--rank", "2", "--row", "1", "--max-m", "2"],
             "character does not read --max-m"),
            (["operator", "--rank", "2", "--order", "3"],
             "C operator does not read --order"),
            (["operator", "--rank", "3", "--algebra", "D", "--max-m", "2"],
             "D operator does not read --max-m"),
            (["bd", "--algebra", "B", "--rank", "2", "--max-m", "2"],
             "bd does not read --max-m")):
        assert run_cli(argv, capsys) == (2, "", f"error: {err}\n"), argv
    # the earlier checks keep their messages
    code, _, err = run_cli(["verify", "cancellation", "--rank", "2",
                            "--max-m", "-1"], capsys)
    assert code == 2 and err == "error: --max-m must be >= 0, got -1\n"
    # a shared config file may carry bounds that one suite ignores
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=2\nmax_m=3\norder=6\n")
    code, out, _ = run_cli(["verify", "cancellation", "--config", str(cfg)],
                           capsys)
    assert code == 0 and out.endswith("suite ok\n")
    for argv in (["character", "--fundamental", "1"], ["operator"],
                 ["bd", "--algebra", "B"]):
        assert run_cli(argv + ["--config", str(cfg)], capsys)[0] == 0, argv


def test_suite_without_checks_fails(capsys, monkeypatch):
    # no command line makes a suite run zero checks, so a library call
    # that returns none stands in for one
    monkeypatch.setattr(characters, "verify_tsystem",
                        lambda *args: characters.RelationReport())
    code, out, _ = run_cli(["verify", "tsystem", "--rank", "2"], capsys)
    assert (code, out) == (1, "\nsuite FAILED\n")


def test_product_formula_needs_a_positive_bound(capsys):
    # k runs from 1 to --max-m, so --max-m 0 would run no check
    assert run_cli(["verify", "product-formula", "--rank", "2",
                    "--max-m", "0"], capsys) == (
        2, "", "error: product-formula needs --max-m >= 1, got 0\n")
    code, out, _ = run_cli(["verify", "product-formula", "--rank", "2",
                            "--max-m", "1"], capsys)
    assert code == 0 and out.endswith("suite ok\n")


def test_output_independent_of_hash_seed():
    # Packed monomial slots are interned in the order one process meets
    # its variables; the T-system and tt-tq zero-tests, split into
    # residue classes of their frame keys, order their call-local slots
    # by variable, and the screening frame, with its per-node
    # accumulators, numbers them in first-use order; no output may
    # depend on any of these orders or on the hash seed, which the
    # in-process determinism checks cannot vary.  Nor
    # may it change under -O, which strips assert statements.  The
    # Casorati suite's integer kernels iterate dicts and sets keyed by
    # denominators and by (slot, exponent) pairs.
    src = str(Path(__file__).parents[1] / "src")
    for args in (["character", "--rank", "2", "--rect", "2", "2"],
                 ["verify", "bd", "--algebra", "B", "--rank", "2",
                  "--order", "8", "--format", "json"],
                 # the inverse check shares one frame across D-degrees,
                 # each operand packed once by its identity
                 ["verify", "bd", "--algebra", "D", "--rank", "3",
                  "--format", "json"],
                 ["verify", "tsystem", "--rank", "2"],
                 ["verify", "tsystem", "--rank", "2", "--format", "json"],
                 # formal in t_a(h), so ranks 3 and 4 are cheap
                 ["verify", "tsystem", "--rank", "3", "--format", "json"],
                 ["verify", "tsystem", "--rank", "4", "--max-m", "4"],
                 ["verify", "tt-tq", "--rank", "2", "--max-m", "4"],
                 # m = 8 reaches relations with exponent bounds 8 to 15
                 ["verify", "tt-tq", "--rank", "3", "--max-m", "8"],
                 ["verify", "screening", "--rank", "2", "--format", "json"],
                 ["verify", "casorati", "--rank", "2", "--seed", "11",
                  "--format", "json"]):
        outs = []
        for flags, hash_seed in (([], "0"), ([], "1"), (["-O"], "0")):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "qchar.cli", *args],
                capture_output=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2] and outs[0]


# Small runs of every suite and of the bd and operator commands, whose
# stdout in each format is recorded under tests/golden/ as <name>.txt
# and <name>.json.
REPORT_RUNS = {
    "verify_screening": ["verify", "screening", "--rank", "2",
                         "--max-m", "2"],
    "verify_cancellation": ["verify", "cancellation", "--rank", "2"],
    "verify_bijection": ["verify", "bijection", "--rank", "3"],
    "verify_tsystem": ["verify", "tsystem", "--rank", "2", "--max-m", "2"],
    "verify_tt-tq": ["verify", "tt-tq", "--rank", "2", "--max-m", "3"],
    "verify_hseries": ["verify", "hseries", "--rank", "2"],
    "verify_hookchi": ["verify", "hookchi", "--rank", "2", "--seed", "9"],
    "verify_casorati": ["verify", "casorati", "--rank", "2", "--seed", "11"],
    "verify_nnsy": ["verify", "nnsy", "--rank", "2", "--seed", "11"],
    "verify_bd": ["verify", "bd", "--algebra", "B", "--rank", "2",
                  "--order", "6"],
    "verify_lemma-exp": ["verify", "lemma-exp", "--algebra", "D",
                         "--rank", "3", "--order", "6"],
    "verify_product-formula": ["verify", "product-formula", "--rank", "2",
                               "--max-m", "3"],
    "bd_report": ["bd", "--algebra", "D", "--rank", "3", "--order", "6"],
    "bd_coeffs": ["bd", "--algebra", "B", "--rank", "2", "--order", "6",
                  "--emit", "coeffs"],
    "operator_B4": ["operator", "--algebra", "B", "--rank", "4",
                    "--order", "6"],
    "operator_D5": ["operator", "--algebra", "D", "--rank", "5",
                    "--order", "6"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(REPORT_RUNS))
def test_report_matches_golden(name, fmt, capsys):
    code, out, err = run_cli(REPORT_RUNS[name] + ["--format", fmt], capsys)
    want = GOLDEN / f"{name}.{'txt' if fmt == 'text' else 'json'}"
    assert (code, out, err) == (0, want.read_text(), "")


def test_jobs_is_a_serial_no_op(capsys):
    argv = ["verify", "tt-tq", "--rank", "2", "--max-m", "3"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.endswith("suite ok\n")
    assert run_cli(argv + ["--jobs", "2"], capsys) == (code, out, "")
    for jobs in ("0", "-1"):
        code, _, err = run_cli(argv + ["--jobs", jobs], capsys)
        assert code == 2 and err.startswith("error: "), jobs
