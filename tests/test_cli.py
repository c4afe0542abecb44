"""Tests for the command-line interface."""

import argparse
import json
import random
import time
from fractions import Fraction

import pytest

from splfr import engine
from splfr.cli import _analytic_checks, bounds_report, build_parser, golden_toy, main
from splfr.field import FieldContext
from splfr.pda import man_pda, parse_pda


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


class TestPda:
    def test_man_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "pda", "man", "--k", "4", "--t", "2")
        assert code == 0
        assert parse_pda(out).parameters == (4, 6, 3, 4)

    def test_man_to_file_then_validate(self, capsys, tmp_path):
        path = str(tmp_path / "arr.pda")
        code, _, _ = run_cli(capsys, "pda", "man", "--k", "3", "--t", "1", "-o", path)
        assert code == 0
        code, out, err = run_cli(capsys, "pda", "validate", path)
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert (report["k"], report["f"], report["z"], report["s"]) == (3, 3, 1, 3)
        assert "valid" in err

    def test_validate_rejects_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.pda"
        path.write_text("PDA K=2 F=1\n1 1\n")
        code, out, _ = run_cli(capsys, "pda", "validate", str(path))
        assert code == 1
        assert last_json(out)["verdict"] == "fail"

    @pytest.mark.parametrize(
        "argv",
        [("pda", "validate", "{}"), ("sim", "run", "--pda", "{}", "--n", "2", "--b", "1")],
        ids=["validate", "sim"],
    )
    def test_non_ascii_digit_fails_cleanly(self, capsys, tmp_path, argv):
        # "\u00b2".isdigit() holds, but int("\u00b2") raises
        path = tmp_path / "sup.pda"
        path.write_text("PDA K=2 F=1\n* \u00b2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, *(a.format(path) for a in argv))
        assert code == 1
        report = last_json(out)
        assert report["verdict"] == "fail" and "bad token" in report["error"]
        assert "Traceback" not in err

    def test_info_reports_memory_load(self, capsys):
        code, out, _ = run_cli(capsys, "pda", "info", "man:3,1", "--n", "4")
        assert code == 0
        report = last_json(out)
        assert report["memory"]["exact"] == "2"
        assert report["load"]["exact"] == "1"
        assert report["symbol_count_tight"] is True

    def test_bad_construction_spec(self, capsys):
        code, out, _ = run_cli(capsys, "pda", "info", "man:3")
        assert code == 1
        assert last_json(out)["verdict"] == "fail"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pda", "man", "--k", "3", "--t", "1", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit"])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSim:
    ARGS = (
        "sim", "run", "--pda", "man:3,1", "--n", "4", "--b", "3",
        "--field", "p:2", "--seed", "7", "--demands", "units",
    )

    def test_run_passes(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert report["memory"]["exact"] == "2"
        assert report["load"]["exact"] == "1"
        assert report["tx_symbols"] == 15
        assert len(report["users"]) == 3
        assert "M=2 R=1" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_seed_changes_digests(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        args = list(self.ARGS)
        args[args.index("7")] = "8"
        _, out2, _ = run_cli(capsys, *args)
        d1 = [u["decode_sha256"] for u in last_json(out1)["users"]]
        d2 = [u["decode_sha256"] for u in last_json(out2)["users"]]
        assert d1 != d2

    def test_random_demands_decode(self, capsys):
        args = list(self.ARGS)
        args[args.index("units")] = "random"
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert last_json(out)["verdict"] == "pass"

    def test_demands_file(self, capsys, tmp_path):
        path = tmp_path / "demands.txt"
        path.write_text("1 0 1 0\n0 1 1 1\n1 1 1 1\n")
        args = list(self.ARGS)
        args[args.index("units")] = str(path)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert last_json(out)["verdict"] == "pass"

    def test_measured_matches_analytic(self, capsys):
        _, out, err = run_cli(capsys, *self.ARGS)
        checks = last_json(out)["checks"]
        assert checks["memory"] == {
            "measured": {"exact": "2", "decimal": "2.000000000000"},
            "analytic": {"exact": "2", "decimal": "2.000000000000"},
            "ok": True,
        }
        assert checks["load"]["ok"] is True
        assert checks["tx_symbols"] == {"measured": 15, "analytic": 15, "ok": True}
        assert "checks=ok" in err

    def test_single_file_checks_pass(self, capsys):
        args = list(self.ARGS)
        args[args.index("--n") + 1] = "1"
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert report["checks"]["memory"]["analytic"]["exact"] == "1"
        assert all(check["ok"] for check in report["checks"].values())

    @pytest.mark.parametrize("spec, n, b", [("man:3,1", 4, 3), ("man:4,2", 3, 12)])
    def test_measure_mismatch_fails(self, capsys, monkeypatch, spec, n, b):
        measure = engine.measure

        def wrong_memory(state):
            return measure(state)._replace(m_exact=measure(state).m_exact + 1)

        monkeypatch.setattr(engine, "measure", wrong_memory)
        code, out, err = run_cli(capsys, "sim", "run", "--pda", spec, "--n", str(n),
                                 "--b", str(b), "--field", "b:8", "--seed", "3")
        assert code == 1
        report = last_json(out)
        assert report["verdict"] == "fail"
        assert all(user["correct"] for user in report["users"])
        assert report["checks"]["memory"]["ok"] is False
        assert report["checks"]["load"]["ok"] and report["checks"]["tx_symbols"]["ok"]
        assert "checks=FAIL" in err

    @pytest.mark.parametrize(
        "part, load, tx", [("blocks", Fraction(4, 3), 16), ("coeff_vectors", Fraction(1), 14)]
    )
    def test_mis_sized_payload_fails_the_checks(self, part, load, tx):
        # load and tx are counted in the delivered payload, not taken from the
        # array: a payload one symbol off shows in them
        arr, ctx = man_pda(3, 1), FieldContext.prime(2)
        rng = random.Random(5)
        library = engine.Library.random(ctx, 4, 3, rng)
        keys = engine.Randomness.generate(arr, 4, 3, ctx, rng)
        state = engine.place(arr, library, keys, engine.Mode.SPLFR)
        payload = engine.deliver(state, ((1, 0, 0, 0),) * 3)
        first, *rest = getattr(payload, part)
        first = first + (0,) if part == "blocks" else first[:-1]
        payload = payload._replace(**{part: (first, *rest)})
        checks = _analytic_checks(arr, 4, 3, engine.measure(state), payload)
        assert checks["memory"]["ok"] is True
        assert checks["load"] == {"measured": load, "analytic": 1, "ok": load == 1}
        assert checks["tx_symbols"] == {"measured": tx, "analytic": 15, "ok": False}

    def test_seeded_key_source(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        assert last_json(out)["key_source"] == "seeded"

    def test_unseeded_run_uses_system_keys(self, capsys):
        args = list(self.ARGS)
        del args[args.index("--seed") : args.index("--seed") + 2]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert report["seed"] is None and report["key_source"] == "system"

    def test_non_divisible_b_fails_cleanly(self, capsys):
        args = list(self.ARGS)
        args[args.index("3")] = "4"  # b = 4 with F = 3
        code, out, _ = run_cli(capsys, *args)
        assert code == 1
        assert last_json(out)["verdict"] == "fail"

    @pytest.mark.parametrize("b", ["0", "-3"])
    def test_non_positive_b_fails_cleanly(self, capsys, b):
        args = list(self.ARGS)
        args[args.index("3")] = b
        code, out, _ = run_cli(capsys, *args)
        assert code == 1
        assert "at least one symbol" in last_json(out)["error"]

    def test_non_integer_demand_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "demands.txt"
        path.write_text("1 0 1 0\n0 1 x 1\n1 1 1 1\n")
        args = list(self.ARGS)
        args[args.index("units")] = str(path)
        code, out, _ = run_cli(capsys, *args)
        assert code == 1
        report = last_json(out)
        assert report["verdict"] == "fail" and "integers" in report["error"]


class TestAudit:
    BASE = ("--pda", "man:2,1", "--n", "2", "--b", "2", "--field", "p:2")

    def test_security_pass(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "security", *self.BASE)
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert report["atoms"] == 8192

    def test_security_fail_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "security", *self.BASE,
                               "--mode", "lfr")
        assert code == 1
        assert last_json(out)["verdict"] == "fail"

    def test_privacy_subset(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "privacy", *self.BASE,
                               "--subset", "1")
        assert code == 0
        assert last_json(out)["verdict"] == "pass"

    def test_privacy_all_subsets(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "privacy", *self.BASE)
        assert code == 0
        # three nonempty subsets of two users, 8192 atoms each
        assert last_json(out)["atoms"] == 3 * 8192

    @pytest.mark.parametrize("subset", ["1,x", ",1", ""])
    def test_bad_subset_fails_cleanly(self, capsys, subset):
        code, out, _ = run_cli(capsys, "audit", "privacy", *self.BASE,
                               "--subset", subset)
        assert code == 1
        report = last_json(out)
        assert report["verdict"] == "fail" and "--subset" in report["error"]

    def test_method_reported(self, capsys):
        _, out, err = run_cli(capsys, "audit", "security", *self.BASE)
        assert last_json(out)["method"] == "certificate"
        assert "by certificate" in err

    def test_correctness(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "correctness", *self.BASE,
                               "--demand-space", "units")
        assert code == 0
        assert last_json(out)["verdict"] == "pass"

    def test_budget_exceeded(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "security", *self.BASE,
                               "--budget", "100")
        assert code == 1
        assert "exceed" in last_json(out)["error"]

    @pytest.mark.parametrize("flag,value", [("--b", "0"), ("--b", "-2"), ("--n", "0")])
    def test_non_positive_sizes_fail_cleanly(self, capsys, flag, value):
        args = list(self.BASE)
        args[args.index(flag) + 1] = value
        code, out, _ = run_cli(capsys, "audit", "security", *args)
        assert code == 1
        report = last_json(out)
        assert report["verdict"] == "fail" and "B >= 1" in report["error"]


ZERO_FILES = [[0, 0], [0, 0]]
#: the first witness of a failing privacy audit, with colluders {1} and {2}
WITNESS_1 = {
    "files": ZERO_FILES,
    "hidden_demands": [[0, 0]],
    "observed": "(((0, 0), (0, 0)), ((0,),), ((0, 0),), "
    "((((0, ((0,), (0,))),), ((1, (0,)),)),))",
}
WITNESS_2 = {
    "files": ZERO_FILES,
    "hidden_demands": [[0, 0]],
    "observed": "(((0, 0), (0, 0)), ((0,),), ((0, 0),), "
    "((((1, ((0,), (0,))),), ((0, (0,)),)),))",
}
#: arguments after "audit" -> (verdict, atoms, violations, method, counterexample),
#: on man:2,1 with N = B = 2 over GF(2) unless the arguments say otherwise
PINNED_AUDITS = {
    ("security", "--mode", "lfr"): ("fail", 8192, 7936, "enumeration", {
        "demands": [[0, 0], [0, 0]], "files": ZERO_FILES,
        "signal": "(((0, 0), (0, 0)), ((0,),))",
    }),
    ("security", "--mode", "plfr"): ("fail", 8192, 7680, "enumeration", {
        "demands": [[0, 0], [0, 0]], "files": ZERO_FILES,
        "signal": "(((0, 0), (0, 1)), ((0,),))",
    }),
    ("security", "--mode", "slfr"): ("fail", 8192, 8192, "enumeration", {
        "demands": [[0, 0], [0, 0]], "files": ZERO_FILES,
        "signal": "(((0, 0), (0, 0)), ((0,),))",
    }),
    ("privacy", "--mode", "slfr", "--subset", "1"): (
        "fail", 8192, 2048, "enumeration", WITNESS_1
    ),
    ("privacy", "--mode", "slfr"): (
        "fail", 24576, 4096, "enumeration", dict(WITNESS_1, subset=[1])
    ),
    ("privacy", "--mode", "lfr"): (
        "fail", 24576, 2048, "enumeration", dict(WITNESS_1, subset=[1])
    ),
    ("privacy", "--mode", "lfr", "--subset", "2"): (
        "fail", 8192, 1024, "enumeration", WITNESS_2
    ),
    ("correctness",): ("pass", 8192, 0, "certificate", None),
    ("security",): ("pass", 8192, 0, "certificate", None),
    ("privacy",): ("pass", 24576, 0, "certificate", None),
    ("security", "--field", "p:3", "--demand-space", "units"): (
        "pass", 78732, 0, "certificate", None
    ),
    ("privacy", "--mode", "plfr", "--demand-space", "units"): (
        "pass", 6144, 0, "certificate", None
    ),
    ("security", "--mode", "lfr", "--demand-space", "units"): (
        "fail", 2048, 512, "enumeration", {
            "demands": [[1, 0], [1, 0]], "files": ZERO_FILES,
            "signal": "(((1, 0), (1, 0)), ((0,),))",
        }
    ),
}


@pytest.mark.parametrize(
    "args", PINNED_AUDITS, ids=lambda args: "_".join(a.lstrip("-") for a in args)
)
def test_pinned_audit_reports(capsys, args):
    # every figure and witness of the audits, certificate and enumeration alike
    instance = ("--pda", "man:2,1", "--n", "2", "--b", "2")
    code, out, _ = run_cli(capsys, "audit", *args, *instance)
    report = last_json(out)
    verdict, atoms, violations, method, counterexample = PINNED_AUDITS[args]
    assert code == (0 if verdict == "pass" else 1)
    assert (report["verdict"], report["atoms"], report["violations"], report["method"]) == (
        verdict, atoms, violations, method
    )
    assert report["counterexample"] == counterexample


class TestAuditBudget:
    """The certificates are budgeted by their probe points, enumeration by atoms."""

    MAN31 = ("--pda", "man:3,1", "--n", "3", "--b", "3")

    @pytest.mark.parametrize("audit, atoms", [("security", 2**30), ("privacy", 7 * 2**30)])
    def test_certificates_run_past_the_atom_budget(self, capsys, audit, atoms):
        # 512 file realizations x 22 probe points, 11,264 deliveries in all
        code, out, _ = run_cli(capsys, "audit", audit, *self.MAN31)
        assert code == 0
        report = last_json(out)
        assert (report["verdict"], report["method"], report["atoms"]) == (
            "pass", "certificate", atoms
        )
        assert report["atoms"] > report["config"]["budget"]

    def test_failing_certificate_is_refused_by_the_atom_budget(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "audit", "security", "--mode", "lfr", *self.MAN31)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert last_json(out)["error"] == "1073741824 atoms exceed budget 67108864"

    def test_probe_points_over_the_budget_are_refused(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "security", "--pda", "man:2,1",
                               "--n", "2", "--b", "2", "--budget", "100")
        assert code == 1
        assert last_json(out)["error"] == "160 probe points exceed budget 100"


class TestInputErrors:
    """A bad demands file or config flag gives a JSON error and exit code 1."""

    SIM = ("sim", "run", "--pda", "man:3,1", "--n", "4", "--b", "3", "--seed", "7")

    @pytest.mark.parametrize(
        "text, flags, error",
        [
            ("1 0 0 0\n0 1 0 0\n", ("--demands", "{}"),
             "demands file must have 3 lines, got 2"),
            # the engine's own check of a demand
            ("1 0 0 0\n0 1 0\n0 0 1 0\n", ("--demands", "{}"), "demand length 3 != N=4"),
            ("1 0 0 0\n0 1 0 2\n0 0 1 0\n", ("--demands", "{}"), "value 2 outside [0, 2)"),
            (None, ("--config",), "--config requires a file path"),
            ("[4, 3]", ("--config", "{}"), "config file {} must hold a JSON object"),
        ],
        ids=["demand-lines", "demand-length", "demand-value", "config-last", "config-list"],
    )
    def test_rejected(self, capsys, tmp_path, text, flags, error):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(capsys, *self.SIM, *(f.format(path) for f in flags))
        assert code == 1
        report = last_json(out)
        assert (report["verdict"], report["error"]) == ("fail", error.format(path))
        assert "Traceback" not in err


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(capsys, "bounds", "check", "--n", "4", "--k", "2")[0] == 0
    tree = len(built)
    assert tree > 1
    assert run_cli(capsys, "bounds", "check", "--n", "6", "--k", "3")[0] == 0
    assert len(built) == tree


class TestCurvesBoundsGap:
    def test_curves_emit(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "curves", "emit", "--n", "4", "--k", "3",
                               "--schemes", "splfr,yma", "--out", str(tmp_path))
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert (tmp_path / "curves_n4_k3.csv").exists()
        assert (tmp_path / "curves_n4_k3.svg").exists()

    def test_curves_unknown_scheme(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "curves", "emit", "--n", "4", "--k", "3",
                               "--schemes", "nope", "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("schemes", ["yma", "privkey-plfr,virtual"])
    @pytest.mark.parametrize("n, k", [(1, 2), (3, 0)])
    def test_curves_emit_outside_the_curve_domain(self, capsys, tmp_path, schemes, n, k):
        out_dir = tmp_path / "curves"
        code, out, err = run_cli(capsys, "curves", "emit", "--n", str(n), "--k", str(k),
                                 "--schemes", schemes, "--out", str(out_dir))
        assert code == 1
        report = last_json(out)
        assert report["verdict"] == "fail"
        assert report["error"] == f"need N >= 2 and K >= 1, got N={n}, K={k}"
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_bounds_check(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "check", "--n", "4", "--k", "3")
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert report["checks"]["corner_equality"] is True

    def test_bounds_report_helper(self):
        report = bounds_report(6, 4)
        assert report["ok"]

    def test_gap_check(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "check", "--n", "2", "--k", "2")
        assert code == 0
        report = last_json(out)
        assert report["checks"]["ratio2"]["ok"] is True
        assert report["checks"]["ratio2"]["exact"] is True

    @pytest.mark.parametrize("n, k", [(1, 5), (3, 0), (0, 3)])
    def test_gap_check_outside_the_curve_domain(self, capsys, n, k):
        code, out, err = run_cli(capsys, "gap", "check", "--n", str(n), "--k", str(k))
        assert code == 1
        report = last_json(out)
        assert report["verdict"] == "fail"
        assert report["error"] == f"need N >= 2 and K >= 1, got N={n}, K={k}"
        assert "Traceback" not in err

    def test_gap_check_irrational_supremum(self, capsys):
        code, out, err = run_cli(capsys, "gap", "check", "--n", "20", "--k", "24")
        assert code == 0
        entry = last_json(out)["checks"]["smooth_bound"]
        # an interior maximum, reported as its certified upper bracket
        assert entry["exact"] is False and entry["ok"] is True
        assert Fraction(entry["max"]["exact"]) >= Fraction("3.99333")
        assert "smooth_bound: sup<=" in err
        assert "simple_converse: sup=1 " in err


class TestConfigFile:
    def test_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n": 4, "b": 3, "seed": 7, "field": "p:2"}')
        code, out, _ = run_cli(capsys, "sim", "run", "--pda", "man:3,1",
                               "--config", str(cfg))
        assert code == 0
        assert last_json(out)["verdict"] == "pass"

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n": 4, "b": 3, "seed": 7}')
        code, out, _ = run_cli(capsys, "sim", "run", "--pda", "man:3,1",
                               "--seed", "9", "--config", str(cfg))
        assert code == 0
        assert last_json(out)["seed"] == 9

    def test_explicit_equals_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n": 4, "b": 3, "seed": 7}')
        code, out, _ = run_cli(capsys, "sim", "run", "--pda", "man:3,1",
                               "--seed=9", "--config", str(cfg))
        assert code == 0
        assert last_json(out)["seed"] == 9

    def test_missing_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sim", "run", "--pda", "man:3,1",
                               "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert last_json(out)["verdict"] == "fail"

    def test_malformed_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json")
        code, out, _ = run_cli(capsys, "sim", "run", "--pda", "man:3,1",
                               "--config", str(cfg))
        assert code == 1


class TestToy:
    def test_default_seed(self, capsys):
        code, out, _ = run_cli(capsys, "toy")
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "pass"
        assert all(report["checks"].values())

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_many_seeds(self, seed):
        assert golden_toy(seed)["ok"]
