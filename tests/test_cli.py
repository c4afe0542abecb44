"""Tests for the command-line interface."""

import argparse
import hashlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from splfr import __version__, engine
from splfr.audit import AuditConfig
from splfr.cli import _all_digits, _analytic_checks, bounds_report, build_parser, golden_toy
from splfr.cli import main
from splfr.field import FieldContext
from splfr.pda import man_pda, parse_pda
from splfr.tradeoff import SCHEMES


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

    @pytest.mark.parametrize(
        "argv", [("pda", "man", "--k", "-2", "--t", "0"), ("pda", "info", "man:0,0")]
    )
    def test_no_users_names_k(self, capsys, argv):
        k = -2 if "-2" in argv else 0
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert last_json(out)["error"] == f"need K >= 1, got K={k}"
        assert err.endswith(f"need K >= 1, got K={k}\n")

    def test_bad_construction_spec(self, capsys):
        code, out, _ = run_cli(capsys, "pda", "info", "man:3")
        assert code == 1
        assert last_json(out)["verdict"] == "fail"

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_info_refuses_fewer_than_two_files(self, capsys, n):
        # --n 0 is refused as --n 1 is, not read as "no --n given"
        code, out, err = run_cli(capsys, "pda", "info", "man:3,1", "--n", n)
        report = last_json(out)
        assert code == 1 and report["verdict"] == "fail"
        assert report["error"] == f"need at least 2 files, got {n}"
        assert "memory" not in report and err.endswith(f"need at least 2 files, got {n}\n")


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

    @pytest.mark.parametrize("seeded", [False, True])
    def test_keys_come_from_the_system_source(self, capsys, monkeypatch, seeded):
        # an unseeded run draws every key symbol, and nothing else, from one
        # OS-backed generator; a seeded run makes none
        made = []

        class Recording(random.SystemRandom):
            def __init__(self):
                super().__init__()
                self.draws = 0
                made.append(self)

            def randrange(self, *args):
                self.draws += 1
                return super().randrange(*args)

        monkeypatch.setattr(random, "SystemRandom", Recording)
        args = list(self.ARGS)
        if not seeded:
            del args[args.index("--seed") : args.index("--seed") + 2]
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        if seeded:
            assert made == []
        else:
            (system,) = made
            assert system.draws == engine.Randomness.symbols(man_pda(3, 1), 4, 3)

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

    def test_an_atom_count_longer_than_the_default_digit_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "audit", "correctness", "--pda", "man:2,1",
                                 "--n", "2", "--b", "450", "--field", "p:65521")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        atoms = AuditConfig(man_pda(2, 1), 2, 450, FieldContext.parse("p:65521")).atom_count
        with _all_digits():
            assert len(str(atoms)) > 4300
            assert code == 0 and f"({atoms} atoms," in err
            report = last_json(out)
        assert report["verdict"] == "pass" and report["atoms"] == atoms

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
        # below the 50 probe points of the certificate
        code, out, _ = run_cli(capsys, "audit", "security", *self.BASE,
                               "--budget", "40")
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


def audit_commands():
    """(label, arguments after "audit") of each command ``AUDIT_DIGESTS`` pins.

    man:2,1 with N = B = 2 in every mode, over GF(2) with every demand and
    over GF(2), GF(2^1) and GF(3) with unit demands, each audit and every
    privacy subset; man:3,1 with N = B = 3 over GF(2) and GF(2^8); a budget
    refusal and a bad subset.
    """
    man21 = ("--pda", "man:2,1", "--n", "2", "--b", "2")
    audits = {"correctness": ("correctness",), "security": ("security",),
              "privacy": ("privacy",)}
    audits.update({f"privacy {s}": ("privacy", "--subset", s) for s in ("1", "2", "1,2")})
    spaces = (("p:2", "all"), ("p:2", "units"), ("b:1", "units"), ("p:3", "units"))
    for (field, space), mode, (name, args) in itertools.product(
        spaces, ("splfr", "plfr", "slfr", "lfr"), audits.items()
    ):
        flags = ("--field", field, "--demand-space", space, "--mode", mode)
        yield f"{field} {space} {mode} {name}", (*args, *man21, *flags)
    for field, audit in itertools.product(("p:2", "b:8"), ("correctness", "security", "privacy")):
        yield f"man:3,1 {field} {audit}", (audit, "--pda", "man:3,1", "--n", "3", "--b", "3",
                                            "--field", field)
    yield "budget 100 privacy", ("privacy", *man21, "--budget", "100")
    yield "bad subset 1,x", ("privacy", *man21, "--subset", "1,x")


#: label -> the first 16 hex digits of the sha256 of [exit code, stdout, stderr] as JSON
AUDIT_DIGESTS = {
    "p:2 all splfr correctness": "e8dddf47941cbd9f",
    "p:2 all splfr security": "fc75682dabf0ba9a",
    "p:2 all splfr privacy": "b1a210b52acb3f81",
    "p:2 all splfr privacy 1": "14b46354921b0ac4",
    "p:2 all splfr privacy 2": "14b46354921b0ac4",
    "p:2 all splfr privacy 1,2": "14b46354921b0ac4",
    "p:2 all plfr correctness": "afaa0bce24d0cccf",
    "p:2 all plfr security": "af724cc1115e5970",
    "p:2 all plfr privacy": "52ca6717cb72c00b",
    "p:2 all plfr privacy 1": "f9de515f5f847301",
    "p:2 all plfr privacy 2": "f9de515f5f847301",
    "p:2 all plfr privacy 1,2": "f9de515f5f847301",
    "p:2 all slfr correctness": "e4ac9414c97a0523",
    "p:2 all slfr security": "6f880dffe2f3add9",
    "p:2 all slfr privacy": "6dd28310d2b8c5b6",
    "p:2 all slfr privacy 1": "1c14ccf6027bd5c6",
    "p:2 all slfr privacy 2": "f882e4fa3c71a873",
    "p:2 all slfr privacy 1,2": "1b3e5a38030bfcee",
    "p:2 all lfr correctness": "685e5ccd74f1ffeb",
    "p:2 all lfr security": "68cb182939977ca7",
    "p:2 all lfr privacy": "08679338da0870c2",
    "p:2 all lfr privacy 1": "4c43dc36bcee97b6",
    "p:2 all lfr privacy 2": "cad1babfdbc47ab7",
    "p:2 all lfr privacy 1,2": "5678ad1410a4a307",
    "p:2 units splfr correctness": "a67b58e1ae4e6f9e",
    "p:2 units splfr security": "93f40d9a50f6d0cb",
    "p:2 units splfr privacy": "a0649d75e15ea777",
    "p:2 units splfr privacy 1": "3285e9ed033b2fb5",
    "p:2 units splfr privacy 2": "3285e9ed033b2fb5",
    "p:2 units splfr privacy 1,2": "3285e9ed033b2fb5",
    "p:2 units plfr correctness": "0af0af04811d137c",
    "p:2 units plfr security": "57ea48836794eeb2",
    "p:2 units plfr privacy": "4d0ea26a69ff38f0",
    "p:2 units plfr privacy 1": "fd523d82e64f2d39",
    "p:2 units plfr privacy 2": "fd523d82e64f2d39",
    "p:2 units plfr privacy 1,2": "fd523d82e64f2d39",
    "p:2 units slfr correctness": "cf83e1ed72952d04",
    "p:2 units slfr security": "25667b02f36fac15",
    "p:2 units slfr privacy": "b42e77b8ff3c2b99",
    "p:2 units slfr privacy 1": "8b481a768086704d",
    "p:2 units slfr privacy 2": "c86df5103fc1ce71",
    "p:2 units slfr privacy 1,2": "0e141e4c3a351156",
    "p:2 units lfr correctness": "6ee1d4bd604eac0e",
    "p:2 units lfr security": "9074381aa13f80d7",
    "p:2 units lfr privacy": "085f049e42f525a0",
    "p:2 units lfr privacy 1": "04c09975807897c2",
    "p:2 units lfr privacy 2": "99a22400f58e1e3d",
    "p:2 units lfr privacy 1,2": "a407b1a1e6ebbf39",
    "b:1 units splfr correctness": "79f2fcd8c6fcec7e",
    "b:1 units splfr security": "be4c089782ecd08d",
    "b:1 units splfr privacy": "923cb77a063ad1e7",
    "b:1 units splfr privacy 1": "1696225a7033bb5f",
    "b:1 units splfr privacy 2": "1696225a7033bb5f",
    "b:1 units splfr privacy 1,2": "1696225a7033bb5f",
    "b:1 units plfr correctness": "29ff7dd78b18a179",
    "b:1 units plfr security": "4e8543e088dda0c1",
    "b:1 units plfr privacy": "48aa20357bdf7abd",
    "b:1 units plfr privacy 1": "2bb777b9a58e6a0c",
    "b:1 units plfr privacy 2": "2bb777b9a58e6a0c",
    "b:1 units plfr privacy 1,2": "2bb777b9a58e6a0c",
    "b:1 units slfr correctness": "58ead828f2667656",
    "b:1 units slfr security": "4ce191f7a015d1cc",
    "b:1 units slfr privacy": "d67ae2409d90d0ba",
    "b:1 units slfr privacy 1": "910e729b144a12aa",
    "b:1 units slfr privacy 2": "6ea3e047d0a7af11",
    "b:1 units slfr privacy 1,2": "4e0cfd3e8e50b5b5",
    "b:1 units lfr correctness": "65e76be1457efc95",
    "b:1 units lfr security": "4badd0397aee7aae",
    "b:1 units lfr privacy": "695be66ea46248f2",
    "b:1 units lfr privacy 1": "eaba89ef6a432391",
    "b:1 units lfr privacy 2": "9eb43bdcd26b07b1",
    "b:1 units lfr privacy 1,2": "f522104139db7dee",
    "p:3 units splfr correctness": "5cd2f35617277ea8",
    "p:3 units splfr security": "8adfc1eafac50c87",
    "p:3 units splfr privacy": "6465f176343c7bad",
    "p:3 units splfr privacy 1": "f694c47751f687b9",
    "p:3 units splfr privacy 2": "f694c47751f687b9",
    "p:3 units splfr privacy 1,2": "f694c47751f687b9",
    "p:3 units plfr correctness": "7edd15261f377106",
    "p:3 units plfr security": "bf0243924f476b5e",
    "p:3 units plfr privacy": "20c60b476c17972c",
    "p:3 units plfr privacy 1": "b0880f1234d62ecb",
    "p:3 units plfr privacy 2": "b0880f1234d62ecb",
    "p:3 units plfr privacy 1,2": "b0880f1234d62ecb",
    "p:3 units slfr correctness": "770d0bb24db6d419",
    "p:3 units slfr security": "281e147d49d3574f",
    "p:3 units slfr privacy": "c8aa52151189b421",
    "p:3 units slfr privacy 1": "108eb8aa40dde122",
    "p:3 units slfr privacy 2": "6a209660928bd282",
    "p:3 units slfr privacy 1,2": "58b3e9679f563cc0",
    "p:3 units lfr correctness": "5fe8b06308fcc1c0",
    "p:3 units lfr security": "75dbee98ff98c208",
    "p:3 units lfr privacy": "5ee32932ce5f49b3",
    "p:3 units lfr privacy 1": "3b7b2fdabdb0f2da",
    "p:3 units lfr privacy 2": "e81a6d22aa2fe6aa",
    "p:3 units lfr privacy 1,2": "5ed03db311b2fca3",
    "man:3,1 p:2 correctness": "f6acb7d4be4f30fa",
    "man:3,1 p:2 security": "37447309a5816863",
    "man:3,1 p:2 privacy": "61fd75b3065dff81",
    "man:3,1 b:8 correctness": "9a2f4b956b005653",
    "man:3,1 b:8 security": "0c3a1fdc2cb5f3ec",
    "man:3,1 b:8 privacy": "0a506dfcb3860965",
    "budget 100 privacy": "480a0cf359467f84",
    "bad subset 1,x": "fde30f2a99d06af6",
}


def test_audit_output_is_byte_identical(capsys):
    # each command's exit code, report and summary, byte for byte
    digests = {}
    for label, args in audit_commands():
        text = json.dumps(run_cli(capsys, "audit", *args))
        digests[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert len(digests) == 104
    assert digests == AUDIT_DIGESTS


def tradeoff_commands():
    """(label, the argument lists) of each group of commands ``TRADEOFF_DIGESTS`` pins.

    ``gap check`` on every pair of criterion 7(c), 3 <= N <= 20 and
    N < K <= 40, grouped by N; on (2, 2) and on (30, 10); ``bounds check``
    at (10, 5), (30, 10) and (20, 20).
    """
    for n in range(3, 21):
        yield f"gap check N={n}", [("gap", "check", "--n", str(n), "--k", str(k))
                                   for k in range(n + 1, 41)]
    for cmd, n, k in (("gap", 2, 2), ("gap", 30, 10),
                      ("bounds", 10, 5), ("bounds", 30, 10), ("bounds", 20, 20)):
        yield f"{cmd} check {n},{k}", [(cmd, "check", "--n", str(n), "--k", str(k))]


#: label -> the first 16 hex digits of the sha256 of the group's [exit code, stdout,
#: stderr] as JSON; "curves emit 30,10" adds the CSV and SVG text
TRADEOFF_DIGESTS = {
    "gap check N=3": "fd7e5f70956c7061",
    "gap check N=4": "391ac3c908cc3025",
    "gap check N=5": "59d22b78da9d2811",
    "gap check N=6": "810e9a0df0ed6c78",
    "gap check N=7": "d125e3de3cf9644f",
    "gap check N=8": "5c0e610773c6be76",
    "gap check N=9": "34711f058f3188e9",
    "gap check N=10": "40731258bb2b1df1",
    "gap check N=11": "a8ba65c617dc9284",
    "gap check N=12": "4c5a30a2e16bf524",
    "gap check N=13": "1dacb4c452b61c88",
    "gap check N=14": "2807f8985859b684",
    "gap check N=15": "5b22d26863a9505c",
    "gap check N=16": "13c45623e7c08d6e",
    "gap check N=17": "98d9c32546cdc2c4",
    "gap check N=18": "66a5ec295dffa72c",
    "gap check N=19": "5f9d1c18dabbddbc",
    "gap check N=20": "af0c327e2b5a1b13",
    "gap check 2,2": "0bfd6a63b6c851f0",
    "gap check 30,10": "f0342cf5408de74d",
    "bounds check 10,5": "b1e58b5ca37d62e4",
    "bounds check 30,10": "c585dbf4981aaecb",
    "bounds check 20,20": "66847417b27918a3",
    "curves emit 30,10": "07665aa13a78bb7a",
}


def test_tradeoff_output_is_byte_identical(capsys, tmp_path, monkeypatch):
    # each command's exit code, report and summary, and the files curves emit writes
    def digest(value) -> str:
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]

    digests = {label: digest([run_cli(capsys, *args) for args in group])
               for label, group in tradeoff_commands()}
    monkeypatch.chdir(tmp_path)  # the summary names the files by the relative --out
    emitted = run_cli(capsys, "curves", "emit", "--n", "30", "--k", "10",
                      "--schemes", ",".join(SCHEMES), "--out", "out")
    files = [(tmp_path / "out" / f"curves_n30_k10.{ext}").read_bytes().decode()
             for ext in ("csv", "svg")]
    digests["curves emit 30,10"] = digest([*emitted, *files])
    assert len(digests) == 24
    assert digests == TRADEOFF_DIGESTS


class TestAuditBudget:
    """The certificates are budgeted by their probe points, enumeration by atoms."""

    MAN31 = ("--pda", "man:3,1", "--n", "3", "--b", "3")

    @pytest.mark.parametrize("audit, atoms", [("security", 2**30), ("privacy", 7 * 2**30)])
    def test_certificates_run_past_the_atom_budget(self, capsys, audit, atoms):
        # 10 probe files x 22 probe points, 220 deliveries in all
        code, out, _ = run_cli(capsys, "audit", audit, *self.MAN31)
        assert code == 0
        report = last_json(out)
        assert (report["verdict"], report["method"], report["atoms"]) == (
            "pass", "certificate", atoms
        )
        assert report["atoms"] > report["config"]["budget"]

    @pytest.mark.parametrize("audit", ["correctness", "security", "privacy"])
    @pytest.mark.parametrize("field", ["p:2", "b:8"])
    def test_every_audit_certifies_at_the_probe_files(self, capsys, audit, field):
        # 2^72 file realizations over GF(2^8), and the same 220 deliveries
        code, out, _ = run_cli(capsys, "audit", audit, "--field", field, *self.MAN31)
        assert code == 0
        report = last_json(out)
        assert (report["verdict"], report["method"], report["violations"]) == (
            "pass", "certificate", 0
        )

    def test_failing_certificate_is_refused_by_the_atom_budget(self, capsys):
        for field, atoms in (("p:2", 2**30), ("b:8", 2**240)):
            start = time.perf_counter()
            code, out, _ = run_cli(
                capsys, "audit", "security", "--mode", "lfr", "--field", field, *self.MAN31
            )
            assert time.perf_counter() - start < 1
            assert code == 1
            assert last_json(out)["error"] == f"{atoms} atoms exceed budget 67108864"

    def test_probe_points_over_the_budget_are_refused(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "security", "--pda", "man:2,1",
                               "--n", "2", "--b", "2", "--budget", "40")
        assert code == 1
        assert last_json(out)["error"] == "50 probe points exceed budget 40"


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

    def test_explicit_abbreviated_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n": 4, "b": 3, "seed": 7}')
        # argparse takes --se for --seed, so the explicit flag must win here too
        code, out, _ = run_cli(capsys, "sim", "run", "--pda", "man:3,1",
                               "--se", "9", "--config", str(cfg))
        assert code == 0
        assert last_json(out)["seed"] == 9

    def test_equals_form_of_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"n": 4, "b": 3, "seed": 7}')
        code, out, _ = run_cli(capsys, "sim", "run", "--pda", "man:3,1",
                               f"--config={cfg}")
        assert code == 0
        report = last_json(out)
        assert (report["verdict"], report["seed"]) == ("pass", 7)

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


# -- what every subcommand prints -------------------------------------------

#: input files of the table below, written under the test's tmp_path
TABLE_FILES = {
    "arr.pda": "PDA K=3 F=3\n* 1 2\n1 * 3\n2 3 *\n",
    "bad.pda": "PDA K=2 F=1\n1 1\n",
    "demands.txt": "1 0 1 0\n0 1 1 1\n1 1 1 1\n",
    "short.txt": "1 0 0 0\n0 1 0 0\n",
    "run.json": '{"n": 4, "b": 3, "seed": 7, "field": "p:2"}',
    "list.json": "[4, 3]",
    "bad.json": "not json",
}

#: decode_sha256 of the functions that the seed-7 runs on man:3,1 decode
SHA_A = "d25bf250186f7eedaa276c208677e13ee176d1814cbf45bc13e286f9ac3318eb"
SHA_B = "7c01691d53eb209bba1ea4ade72c86e6e85b6efbec920cc9ca5756e7c4e98c55"
SHA_C = "acd79dc755e76938207b4e8387058da3e818519b2d8b9350edb4a8e2cb9de22d"
SHA_D = "d7d89f8004eac51a32627458843cc54c569793313caab5beff91cb8779fd17c4"


def whole(value: int) -> dict:
    """A whole number as the reports write an exact value."""
    return {"decimal": f"{value}.000000000000", "exact": str(value)}


def error(text: str) -> dict:
    return {"config": None, "error": text, "seed": None, "verdict": "fail",
            "version": __version__}


def sim_report(demands: str, n: int, memory: int, tx: int, digests) -> dict:
    return {
        "checks": {
            "load": {"analytic": whole(1), "measured": whole(1), "ok": True},
            "memory": {"analytic": whole(memory), "measured": whole(memory), "ok": True},
            "tx_symbols": {"analytic": tx, "measured": tx, "ok": True},
        },
        "config": {"b": 3, "demands": demands, "field": "p:2", "mode": "splfr", "n": n,
                   "pda": "man:3,1"},
        "key_source": "seeded", "load": whole(1), "memory": whole(memory),
        "randomness_log2q_units": tx, "seed": 7, "tx_symbols": tx,
        "users": [{"correct": True, "decode_sha256": sha, "user": k}
                  for k, sha in enumerate(digests, 1)],
        "verdict": "pass", "version": __version__,
    }


def audit_report(mode: str, atoms: int, violations: int, method: str,
                 counterexample=None) -> dict:
    return {
        "atoms": atoms,
        "config": {"b": 2, "budget": 67108864, "demand_space": "all", "field": "p:2",
                   "mode": mode, "n": 2, "pda": "man:2,1"},
        "counterexample": counterexample, "method": method, "seed": None,
        "verdict": "fail" if violations else "pass", "version": __version__,
        "violations": violations,
    }


PDA_INFO = {"f": 3, "k": 3, "regularity": 2, "s": 3, "seed": None,
            "symbol_count_bound": whole(3), "symbol_count_tight": True,
            "verdict": "pass", "version": __version__, "z": 1}
BAD_PDA = {"config": {"file": "{tmp}/bad.pda"}, "error": "symbol 1 at (0,0) and (0,1)",
           "seed": None, "verdict": "fail", "version": __version__}
SIM = "sim run --pda man:3,1 --n 4 --b 3 --seed 7"
MAN21 = "--pda man:2,1 --n 2 --b 2"

#: command line -> (exit code, stderr, stdout): the stdout is pinned whole
#: where it is a string, and by its last line, the JSON report, where it is
#: a dict; "{tmp}" stands for the test's tmp_path
CLI_TABLE = {
    "pda man --k 3 --t 1": (0, "", "PDA K=3 F=3\n* 1 2\n1 * 3\n2 3 *\n"),
    "pda man --k 3 --t 1 -o {tmp}/out.pda": (0, "wrote (3,3,1,3) array to {tmp}/out.pda\n", ""),
    "pda validate {tmp}/arr.pda": (
        0, "valid (3,3,1,3) array\n", dict(PDA_INFO, config={"file": "{tmp}/arr.pda"})
    ),
    "pda validate {tmp}/bad.pda": (1, "invalid: symbol 1 at (0,0) and (0,1)\n", BAD_PDA),
    "pda info man:3,1 --n 4": (
        0, "valid (3,3,1,3) array\n",
        dict(PDA_INFO, config={"file": "man:3,1"}, load=whole(1), memory=whole(2)),
    ),
    "pda info {tmp}/bad.pda": (1, "invalid: symbol 1 at (0,0) and (0,1)\n", BAD_PDA),
    SIM: (
        0, "M=2 R=1 tx=15 decode=ok checks=ok\n",
        sim_report("units", 4, 2, 15, (SHA_A, SHA_B, SHA_C)),
    ),
    f"{SIM} --demands random": (
        0, "M=2 R=1 tx=15 decode=ok checks=ok\n",
        sim_report("random", 4, 2, 15, (SHA_C, SHA_D, SHA_B)),
    ),
    f"{SIM} --demands {{tmp}}/demands.txt": (
        0, "M=2 R=1 tx=15 decode=ok checks=ok\n",
        sim_report("{tmp}/demands.txt", 4, 2, 15, (SHA_D, SHA_A, SHA_B)),
    ),
    f"{SIM} --demands {{tmp}}/short.txt": (
        1, "error: demands file must have 3 lines, got 2\n",
        error("demands file must have 3 lines, got 2"),
    ),
    "sim run --pda man:3,1 --n 1 --b 3 --seed 7": (
        0, "M=1 R=1 tx=6 decode=ok checks=ok\n",
        sim_report("units", 1, 1, 6, (SHA_A, SHA_A, SHA_A)),
    ),
    f"audit correctness {MAN21}": (
        0, "correctness: PASS (8192 atoms, 0 violations, by certificate)\n",
        audit_report("splfr", 8192, 0, "certificate"),
    ),
    f"audit security {MAN21} --mode lfr": (
        1, "security: FAIL (8192 atoms, 7936 violations, by enumeration)\n",
        audit_report("lfr", 8192, 7936, "enumeration", {
            "demands": [[0, 0], [0, 0]], "files": ZERO_FILES,
            "signal": "(((0, 0), (0, 0)), ((0,),))",
        }),
    ),
    f"audit privacy {MAN21}": (
        0, "privacy: PASS (24576 atoms, 0 violations, by certificate)\n",
        audit_report("splfr", 24576, 0, "certificate"),
    ),
    f"audit privacy {MAN21} --mode slfr": (
        1, "privacy: FAIL (24576 atoms, 4096 violations, by enumeration)\n",
        audit_report("slfr", 24576, 4096, "enumeration",
                     dict(WITNESS_1, subset=[1])),
    ),
    f"audit security {MAN21} --budget 40": (
        1, "error: 50 probe points exceed budget 40\n",
        error("50 probe points exceed budget 40"),
    ),
    "curves emit --n 4 --k 3 --schemes splfr,yma --out {tmp}/curves": (
        0, "wrote {tmp}/curves/curves_n4_k3.csv and {tmp}/curves/curves_n4_k3.svg\n", {
            "config": {"k": 3, "n": 4}, "csv": "{tmp}/curves/curves_n4_k3.csv", "seed": None,
            "series": ["splfr", "yma", "pda-bound", "cutset-bound"],
            "svg": "{tmp}/curves/curves_n4_k3.svg", "verdict": "pass", "version": __version__,
        },
    ),
    "bounds check --n 4 --k 3": (
        0, "bounds check: PASS\n", {
            "checks": {"achievable_above_converse": True, "corner_equality": True,
                       "f_below_cutset": True},
            "config": None, "k": 3, "n": 4, "ok": True, "seed": None, "verdict": "pass",
            "version": __version__,
        },
    ),
    "gap check --n 20 --k 24": (
        0,
        "simple_converse: sup=1 bound=1 PASS\n"
        "smooth_bound: sup<=225165903408421585777185871921/56385409982949779074921267200 "
        "bound=8 PASS\n",
        {
            "checks": {
                "simple_converse": {"bound": whole(1), "exact": True, "max": whole(1),
                                    "ok": True},
                "smooth_bound": {
                    "bound": whole(8), "exact": False,
                    "max": {"decimal": "3.993336281079", "exact": "225165903408421585777185"
                            "871921/56385409982949779074921267200"},
                    "ok": True,
                },
            },
            "composed_gap_constants": {"K=1": 1.0, "N<K, M in [2,N)": 8.0, "N=K+1": 5.0221,
                                       "N=K=2": 2.0, "N=K>=3": 6.02652, "N>=K+2": 4.01768},
            "config": None, "k": 24, "n": 20, "ok": True, "seed": None, "verdict": "pass",
            "version": __version__,
        },
    ),
    "toy": (
        0, "toy walkthrough: PASS\n", {
            "checks": dict.fromkeys(["cache_layout", "decode", "load", "memory", "parameters",
                                     "regularity", "tx_symbols"], True),
            "config": None, "ok": True, "seed": 7, "verdict": "pass", "version": __version__,
        },
    ),
    "sim run --pda man:3,1 --config {tmp}/run.json": (
        0, "M=2 R=1 tx=15 decode=ok checks=ok\n",
        sim_report("units", 4, 2, 15, (SHA_A, SHA_B, SHA_C)),
    ),
    "sim run --pda man:3,1 --config": (
        1, "error: --config requires a file path\n", error("--config requires a file path"),
    ),
    "sim run --pda man:3,1 --config {tmp}/list.json": (
        1, "error: config file {tmp}/list.json must hold a JSON object\n",
        error("config file {tmp}/list.json must hold a JSON object"),
    ),
    "sim run --pda man:3,1 --config {tmp}/bad.json": (
        1, "error: bad config file {tmp}/bad.json: Expecting value: line 1 column 1 (char 0)\n",
        error("bad config file {tmp}/bad.json: Expecting value: line 1 column 1 (char 0)"),
    ),
    "sim run --pda man:3,1 --config {tmp}/nope.json": (
        1, "error: [Errno 2] No such file or directory: '{tmp}/nope.json'\n",
        error("[Errno 2] No such file or directory: '{tmp}/nope.json'"),
    ),
}


@pytest.mark.parametrize("command", CLI_TABLE)
def test_what_every_subcommand_prints(capsys, tmp_path, command):
    for name, text in TABLE_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, *command.format(tmp=tmp_path).split())
    out, err = (text.replace(str(tmp_path), "{tmp}") for text in (out, err))
    want_code, want_err, want_out = CLI_TABLE[command]
    assert (code, err) == (want_code, want_err)
    if isinstance(want_out, str):
        assert out == want_out
    else:
        # byte for byte: the report is one sorted JSON object on the last line
        assert out.splitlines()[-1] == json.dumps(want_out, sort_keys=True)
