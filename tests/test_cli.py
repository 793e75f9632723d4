import io
import json
import sys

import pytest

from ffcount.cli import main, parse_element, parse_upoly
from ffcount.ff import UniPoly, field_make

F5 = field_make(5, 1)
F4 = field_make(2, 2)


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def test_parse_upoly_prime_field():
    assert parse_upoly(F5, "x^3+2x+1") == UniPoly(F5, [1, 2, 0, 1])
    assert parse_upoly(F5, "x^2-x") == UniPoly(F5, [0, 4, 1])
    assert parse_upoly(F5, "3") == UniPoly(F5, [3])


def test_parse_upoly_extension_field():
    got = parse_upoly(F4, "(1,1)x^2+(0,1)")
    assert got == UniPoly(F4, [F4.elem((0, 1)), F4.zero, F4.elem((1, 1))])
    assert parse_element(F4, "(0,1)") == F4.from_code(2)


def test_parse_upoly_sums_repeated_and_reordered_terms():
    assert parse_upoly(F5, "x+3+x^2+4x+x^2") == UniPoly(F5, [3, 0, 2])
    assert parse_upoly(F5, "x^2-x^2+1") == UniPoly(F5, [1])
    # the same polynomial as the sum of its terms, each built alone
    want = (UniPoly(F4, [0, F4.elem((0, 1))]) + UniPoly(F4, [0, 0, 0, 1])
            + UniPoly(F4, [0, F4.elem((1, 1))]))
    assert parse_upoly(F4, "(0,1)x+x^3+(1,1)x") == want


def test_parse_upoly_of_a_sparse_high_degree_text_is_built_once():
    import time

    F2 = field_make(2, 1)
    start = time.perf_counter()
    f = parse_upoly(F2, "x^1000000+x")
    elapsed = time.perf_counter() - start
    assert f.degree == 1000000 and f.c[1] == 1 and sum(f.c) == 2
    assert elapsed < 0.3, elapsed


def test_count_exact():
    rc, out = run(["count", "--class", "irreducible", "--r", "2", "--n", "2", "--q", "2"])
    assert rc == 0 and out.strip() == "35"


def test_count_symbolic_value():
    rc, out = run(["count", "--class", "reducible", "--r", "2", "--n", "2", "--symbolic"])
    assert rc == 0
    assert out.strip() == "(q^4+2q^3+2q^2+q)/(2)"  # evaluates to 21 at q=2


def test_count_decomposable_has_no_exact_formula():
    rc, _ = run(["count", "--class", "decomposable_mv", "--r", "2", "--n", "4", "--q", "2"])
    assert rc == 2


def test_verify_powerful():
    rc, out = run(
        ["verify", "--class", "powerful", "--r", "2", "--n", "4", "--s", "2", "--q", "2"]
    )
    assert rc == 0
    assert "356" in out and "verified: True" in out


@pytest.mark.parametrize("cls", ["rel_irreducible", "abs_irreducible"])
def test_verify_conjugate_classes_at_degree_zero(cls):
    rc, out = run(["verify", "--class", cls, "--r", "2", "--n", "0", "--q", "2",
                   "--format", "json"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["oracle"] == rec["formula"] == "0" and rec["verified"] is True


@pytest.mark.parametrize("cls, r, n", [("decomposable_mv", 0, 1), ("reducible", 0, 2),
                                        ("irreducible", 2, -1)])
def test_verify_rejects_r_below_1_and_negative_n(cls, r, n):
    # r = 0 used to recurse without end in the monomial enumeration
    rc, _ = run(["verify", "--class", cls, "--r", str(r), "--n", str(n), "--q", "2"])
    assert rc == 2


def test_verify_decomposable_bracket():
    rc, out = run(["verify", "--class", "decomposable_mv", "--r", "2", "--n", "4", "--q", "2"])
    assert rc == 0


def test_approx_json_roundtrip():
    rc, out = run(
        ["approx", "--class", "reducible", "--r", "2", "--n", "5", "--symbolic",
         "--format", "json"]
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["schema_version"] == "1"
    assert rec["gap_exponent"] == "2"
    assert json.loads(json.dumps(rec)) == rec


def test_series_command():
    rc, out = run(["series", "--class", "irreducible", "--r", "1", "--max-n", "4", "--q", "2"])
    assert rc == 0
    values = [line.split()[-1] for line in out.strip().splitlines()]
    assert values == ["0", "2", "1", "2", "3"]


def test_series_symbolic():
    rc, out = run(["series", "--class", "all", "--r", "2", "--max-n", "2"])
    assert rc == 0 and "(q^5+q^4+q^3)/(1)" in out


def test_series_negative_max_n_is_a_usage_error(capsys):
    rc, out = run(["series", "--class", "irreducible", "--r", "2", "--max-n", "-1"])
    assert rc == 2 and out == ""
    assert "--max-n must be >= 0" in capsys.readouterr().err


def test_oeis_check_negative_max_n_is_a_usage_error(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("1 2\n")
    rc, out = run(["oeis-check", "--file", str(table), "--r", "1", "--q", "2", "--max-n", "-1"])
    assert rc == 2 and out == ""
    assert "--max-n must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["before", "after"])
@pytest.mark.parametrize("command, field, value", [("count", "exact", "35"), ("verify", "verified", True)])
def test_format_before_or_after_the_subcommand(command, field, value, where):
    argv = [command, "--class", "irreducible", "--r", "2", "--n", "2", "--q", "2"]
    flag = ["--format", "json"]
    rc, out = run(flag + argv if where == "before" else argv + flag)
    assert rc == 0 and json.loads(out)[field] == value


def test_decomp_command_json():
    rc, out = run(["decomp", "--n", "6", "--q", "5", "--format", "json"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["bracket"]["case"] == "v"
    assert rec["intersections"][0] == {"l": "2", "m": "3", "kind": "tame", "exact": "25"}


@pytest.mark.parametrize("n", [-6, 0, 1, 2, 3])
def test_decomp_names_a_degree_that_is_not_composite(n, capsys):
    rc, out = run(["decomp", "--n", str(n), "--q", "2"])
    assert rc == 2 and out == ""
    assert f"no decomposables: degree {n} is not composite" in capsys.readouterr().err


def test_census_command():
    rc, out = run(["census", "--n", "4", "--q", "2", "--format", "json"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["total"] == "3"
    assert rec["collision_histogram"] == {"1": "2", "2": "1"}


def test_census_at_prime_degree_is_empty():
    rc, out = run(["census", "--n", "5", "--q", "2", "--format", "json"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["total"] == "0" and rec["frobenius_members"] == "0"
    assert rec["per_split"] == rec["pair_intersections"] == rec["collision_histogram"] == {}


@pytest.mark.parametrize("n", [0, -4])
def test_census_below_degree_1_names_the_census_degree(n, capsys):
    rc, out = run(["census", "--n", str(n), "--q", "2"])
    assert rc == 2 and out == ""
    assert f"census degree n must be >= 1, got n = {n}" in capsys.readouterr().err


# one complete argv per family; each test drops one of its flags
FAMILY_ARGV = {
    "ritt1": ["--q", "5", "--l", "2", "--k", "1", "--w", "x+1", "--a", "0"],
    "ritt2": ["--q", "5", "--l", "2", "--m", "3", "--z", "1", "--a", "0"],
    "frobenius": ["--q", "2", "--h", "x^2+x"],
    "S": ["--q", "4", "--u", "1", "--s-elem", "1", "--eps", "0", "--m", "1", "--r-power", "2"],
    "M": ["--q", "5", "--a", "2", "--b", "1", "--m", "2", "--r-power", "5"],
}


@pytest.mark.parametrize(
    "family, flag",
    [(fam, flag) for fam, argv in FAMILY_ARGV.items() for flag in argv[2::2]],
)
def test_families_missing_flag_is_a_usage_error(family, flag, capsys):
    argv = FAMILY_ARGV[family]
    assert run(["families", "--family", family] + argv)[0] == 0
    at = argv.index(flag)
    rc, out = run(["families", "--family", family] + argv[:at] + argv[at + 2 :])
    assert rc == 2 and out == ""
    assert f"needs {flag}" in capsys.readouterr().err


def test_families_command_verifies():
    rc, out = run(
        ["families", "--family", "ritt1", "--q", "5", "--l", "2", "--k", "1",
         "--w", "x+1", "--a", "0"]
    )
    assert rc == 0 and "verified: True" in out


def test_families_json():
    rc, out = run(
        ["families", "--family", "S", "--q", "4", "--u", "1", "--s-elem", "1",
         "--eps", "0", "--m", "1", "--r-power", "2", "--format", "json"]
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["verified"] is True and len(rec["decompositions"]) == 3


def test_csv_format():
    rc, out = run(
        ["count", "--class", "irreducible", "--r", "2", "--n", "3", "--q", "2",
         "--format", "csv"]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,n,q,s,class,exact,main_term,bound,oracle"
    assert lines[1].startswith("2,3,2,,irreducible,694")


@pytest.mark.parametrize("argv", [
    ["census", "--n", "25", "--q", "5"],
    ["series", "--class", "irreducible", "--r", "2", "--max-n", "3"],
])
def test_csv_without_a_row_exits_2_before_the_command_runs(argv, monkeypatch, capsys):
    from ffcount import cli, oracle

    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(oracle, "oracle_decomp_census", refuse)
    monkeypatch.setattr(cli, "exact_count", refuse)
    rc, out = run(argv + ["--format", "csv"])
    assert rc == 2 and out == ""
    assert "csv output is only available for count/approx/verify" in capsys.readouterr().err


def test_json_roundtrip_all_record_kinds():
    commands = [
        ["count", "--class", "irreducible", "--r", "2", "--n", "2", "--q", "2"],
        ["approx", "--class", "powerful", "--r", "2", "--n", "4", "--s", "2", "--q", "2"],
        ["series", "--class", "reducible", "--r", "2", "--max-n", "3", "--q", "2"],
        ["decomp", "--n", "4", "--q", "2"],
        ["census", "--n", "4", "--q", "3"],
        ["verify", "--class", "irreducible", "--r", "1", "--n", "3", "--q", "2"],
        ["families", "--family", "frobenius", "--q", "2", "--h", "x^2+x"],
    ]
    for argv in commands:
        rc, out = run(argv + ["--format", "json"])
        assert rc == 0, argv
        rec = json.loads(out)
        assert rec["schema_version"] == "1"
        assert json.loads(json.dumps(rec)) == rec


def test_exit_code_usage_error():
    rc, _ = run(["count", "--class", "nonsense", "--r", "2", "--n", "2", "--q", "2"])
    assert rc == 2
    rc, _ = run(["no-such-command"])
    assert rc == 2


def test_exit_code_budget(monkeypatch):
    # degree 5 is nowhere else enumerated, so the oracle cache cannot mask
    # the budget check
    monkeypatch.setenv("FFCOUNT_BUDGET", "10")
    rc, _ = run(["verify", "--class", "reducible", "--r", "2", "--n", "5", "--q", "2"])
    assert rc == 3


def test_answers_past_4300_digits_are_printed():
    # 13,173 digits: CPython's default int-to-str limit is 4300
    from ffcount.classes import exact_count

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, out = run(["count", "--class", "irreducible", "--r", "10", "--n", "8", "--q", "2"])
    # the limit is lifted for the command only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    digits = out.strip()
    assert rc == 0 and len(digits) == 13173
    # read in pieces: the restored limit refuses int() of the whole
    value = 0
    for i in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
    assert value == exact_count("irreducible", 10, 8).evaluate(2)


def test_exit_code_verification_mismatch(tmp_path):
    # a corrupted table must drive oeis-check to exit 1
    table = tmp_path / "table.txt"
    table.write_text("1 6\n2 35\n3 999\n")
    rc, out = run(
        ["oeis-check", "--file", str(table), "--r", "2", "--q", "2", "--max-n", "3"]
    )
    assert rc == 1 and "mismatch at n=3" in out


def test_oeis_check_against_oracle_built_table(tmp_path):
    # build the fixture from the enumeration oracle, entirely offline
    from ffcount.ff import field_make as fm
    from ffcount.classes import oracle_count

    ctx = fm(2, 1)
    lines = ["# irreducible bivariate counts over the two-element field"]
    for n in range(1, 4):
        lines.append(f"{n} {oracle_count('irreducible', 2, n, ctx)}")
    table = tmp_path / "snapshot.txt"
    table.write_text("\n".join(lines) + "\n")
    rc, out = run(
        ["oeis-check", "--file", str(table), "--r", "2", "--q", "2", "--max-n", "3"]
    )
    assert rc == 0 and "all entries match" in out


def test_oeis_check_checks_every_line(tmp_path):
    # a repeated index is checked at each of its lines
    table = tmp_path / "table.txt"
    table.write_text("1 2\n2 999\n2 1\n3 2\n")
    rc, out = run(["oeis-check", "--file", str(table), "--r", "1", "--q", "2", "--max-n", "5"])
    assert rc == 1
    assert "checked 4 entries" in out and "mismatch at n=2: table 999" in out


@pytest.mark.parametrize("bad", ["3", "3 2 1", "3 x"])
def test_oeis_check_line_not_two_integers_is_a_usage_error(bad, tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text(f"# n a(n)\n1 2\n\n{bad}\n")
    rc, out = run(["oeis-check", "--file", str(table), "--r", "1", "--q", "2", "--max-n", "5"])
    assert rc == 2 and out == ""
    assert "line 4: expected two integers" in capsys.readouterr().err


def test_oeis_check_missing_file():
    rc, _ = run(["oeis-check", "--file", "/nonexistent", "--r", "2", "--q", "2", "--max-n", "3"])
    assert rc == 2


def test_approx_decomposable_and_relirr():
    rc, out = run(
        ["approx", "--class", "decomposable_mv", "--r", "2", "--n", "4", "--q", "23",
         "--format", "json"]
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["exact"] is None
    assert rec["rel_error_bound"] is None
    assert rec["rel_error_bound_squared"] == "23/121"
    rc, out = run(["approx", "--class", "rel_irreducible", "--r", "2", "--n", "2", "--q", "2"])
    assert rc == 0 and "exact: 7" in out


@pytest.mark.parametrize("argv", [
    ["--class", "reducible", "--r", "2", "--n", "2", "--q", "2"],
    ["--class", "powerful", "--r", "2", "--n", "2", "--s", "2", "--q", "2"],
    ["--class", "rel_irreducible", "--r", "2", "--n", "3", "--q", "2"],
])
def test_approx_of_an_exact_case_prints_no_bound(argv):
    # the main term is exact here, so there is no bound, squared or not
    rc, out = run(["approx", *argv])
    assert rc == 0 and out.splitlines()[-1] == "rel_error_bound: None"
    rec = json.loads(run(["approx", *argv, "--format", "json"])[1])
    assert rec["rel_error_bound"] is None and rec["rel_error_bound_squared"] is None


def test_python_dash_m_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ffcount", "count", "--class", "irreducible",
         "--r", "1", "--n", "2", "--q", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "1"


ORACLE_TABLE = "1 6\n2 35\n"  # irreducible bivariate counts over F_2


@pytest.mark.parametrize("q", ["6", "1", "0", "-3"])
@pytest.mark.parametrize("argv", [
    ["count", "--class", "irreducible", "--r", "2", "--n", "2"],
    ["approx", "--class", "reducible", "--r", "2", "--n", "4"],
    ["series", "--class", "irreducible", "--r", "2", "--max-n", "2"],
    ["oeis-check", "--file", "{table}", "--r", "2", "--max-n", "2"],
])
def test_q_must_be_a_prime_power(argv, q, tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text(ORACLE_TABLE)
    argv = [str(table) if a == "{table}" else a for a in argv]
    rc, out = run(argv + ["--q", q])
    assert rc == 2 and out == ""
    assert "is not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["approx", "--class", "reducible", "--r", "2", "--n", "4", "--q", "2"],
    ["series", "--class", "irreducible", "--r", "2", "--max-n", "3", "--q", "2"],
    ["verify", "--class", "decomposable_mv", "--r", "2", "--n", "4", "--q", "2"],
])
def test_stray_s_is_a_usage_error(argv, capsys):
    assert run(argv)[0] == 0
    rc, out = run(argv + ["--s", "2"])
    assert rc == 2 and out == ""
    assert "takes no power exponent" in capsys.readouterr().err


def test_count_all_is_the_number_of_monic_polynomials():
    from ffcount.ff import count_monic

    for r, n, q in [(1, 3, 2), (2, 2, 3), (2, 4, 2), (3, 2, 4)]:
        rc, out = run(["count", "--class", "all", "--r", str(r), "--n", str(n), "--q", str(q)])
        assert rc == 0 and int(out) == count_monic(q, r, n)


def test_series_rel_irreducible_matches_count():
    rc, out = run(["series", "--class", "rel_irreducible", "--r", "2", "--max-n", "4",
                   "--q", "3", "--format", "json"])
    assert rc == 0
    coeffs = json.loads(out)["coefficients"]
    for n in range(1, 5):
        rc, out = run(["count", "--class", "rel_irreducible", "--r", "2", "--n", str(n), "--q", "3"])
        assert rc == 0 and out.strip() == coeffs[n]


def test_class_choices_come_from_the_class_table():
    from ffcount.classes import CLASSES
    from ffcount.cli import _build_parser

    subparsers = next(a for a in _build_parser()._actions if a.dest == "command").choices
    expected = {
        "count": {c for c, e in CLASSES.items() if e.exact is not None},
        "series": {c for c, e in CLASSES.items() if e.exact is not None},
        "approx": {c for c, e in CLASSES.items() if e.report is not None},
        "verify": {c for c, e in CLASSES.items() if e.oracle is not None},
    }
    for command, classes in expected.items():
        cls_action = next(a for a in subparsers[command]._actions if a.dest == "cls")
        assert set(cls_action.choices) == classes, command
    assert "all" in expected["count"] and "decomposable_mv" not in expected["count"]


def test_cli_import_leaves_numpy_out():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ffcount.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


# recorded before exact counts moved to integer coefficients over one denominator
PINNED_OUTPUT = {
    ("count", "--class", "irreducible", "--r", "2", "--n", "4", "--symbolic"):
        "(4q^14+4q^13+4q^12-6q^10-8q^9-3q^8+4q^7+4q^6-2q^5-2q^4+q^2)/(4)\n",
    ("series", "--class", "powerful", "--r", "2", "--max-n", "6"):
        "[z^0] (0)/(1)\n"
        "[z^1] (0)/(1)\n"
        "[z^2] (q^2+q)/(1)\n"
        "[z^3] (q^4+2q^3+q^2)/(1)\n"
        "[z^4] (q^7+2q^6+3q^5+q^4-q^3-q^2)/(1)\n"
        "[z^5] (q^11+2q^10+2q^9+2q^8+2q^7+q^6-q^5-2q^4-q^3)/(1)\n"
        "[z^6] (q^16+2q^15+2q^14+2q^13+2q^12+q^11+q^10+2q^9+q^8-3q^7-4q^6-2q^5+q^4+q^3)/(1)\n",
    ("approx", "--class", "rel_irreducible", "--r", "2", "--n", "4", "--symbolic"):
        "case: bound composite n\n"
        "exact: (2q^10+q^8-2q^5-2q^4+q^2)/(4)\n"
        "main_term: (q^12)/(2q^2-2)\n"
        "gap_exponent: 2\n"
        "rel_error_bound: (3)/(q^2)\n",
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUT))
def test_symbolic_output_is_pinned(argv):
    assert run(list(argv)) == (0, PINNED_OUTPUT[argv])


@pytest.mark.parametrize("argv", [
    ["count", "--class", "irreducible", "--r", "2", "--n", "7", "--q", "4"],
    ["count", "--class", "abs_irreducible", "--r", "3", "--n", "6", "--q", "3"],
    ["count", "--class", "powerfree", "--r", "2", "--n", "9", "--s", "3", "--q", "5"],
    ["series", "--class", "rel_irreducible", "--r", "2", "--max-n", "8", "--q", "2"],
    ["series", "--class", "powerful", "--r", "1", "--max-n", "12", "--q", "9"],
    ["verify", "--class", "reducible", "--r", "2", "--n", "3", "--q", "2"],
])
def test_fixed_q_answers_build_no_qpoly(argv, monkeypatch):
    from ffcount.classes import exact_count
    from ffcount.qrat import QPoly

    args = dict(zip(argv[1::2], argv[2::2]))
    cls, r, q = args["--class"], int(args["--r"]), int(args["--q"])
    s = int(args["--s"]) if "--s" in args else (2 if cls in ("powerful", "powerfree") else None)
    ns = range(int(args["--max-n"]) + 1) if "--max-n" in args else [int(args["--n"])]
    want = [str(exact_count(cls, r, n, s).evaluate(q)) for n in ns]

    def refuse(self, nums, den):
        raise AssertionError("a QPoly was built")

    monkeypatch.setattr(QPoly, "_set", refuse)  # every QPoly is built through _set
    rc, out = run(argv + ["--format", "json"])
    rec = json.loads(out)
    assert rc == 0
    got = rec.get("coefficients") or [rec.get("exact") or rec["formula"]]
    assert got == want


def test_oeis_check_builds_no_qpoly(tmp_path, monkeypatch):
    from ffcount.qrat import QPoly

    table = tmp_path / "table.txt"
    table.write_text(ORACLE_TABLE)

    def refuse(self, nums, den):
        raise AssertionError("a QPoly was built")

    monkeypatch.setattr(QPoly, "_set", refuse)
    rc, out = run(["oeis-check", "--file", str(table), "--r", "2", "--q", "2", "--max-n", "2"])
    assert rc == 0 and out.splitlines()[-1] == "all entries match"


@pytest.mark.parametrize("argv, seconds", [
    (["series", "--class", "irreducible", "--r", "1", "--max-n", "100", "--q", "2"], 1.0),
    (["count", "--class", "irreducible", "--r", "3", "--n", "30", "--q", "2"], 0.5),
])
def test_fixed_q_answers_in_a_fresh_process(argv, seconds):
    import subprocess
    import time

    from ffcount.mv_counts import irr_exact

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ffcount", *argv], capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    # checked by the other route, outside the timed process
    r, n = int(argv[4]), int(argv[6])
    assert proc.stdout.split()[-1] == str(irr_exact(r, n, "series_log", q=2))
    assert elapsed < seconds, elapsed


def test_series_up_to_400_answers_under_the_default_budget(monkeypatch):
    from ffcount.series import divisors, moebius

    monkeypatch.delenv("FFCOUNT_BUDGET", raising=False)
    rc, out = run(["series", "--class", "irreducible", "--r", "1", "--max-n", "400", "--q", "2"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 401
    gauss = sum(moebius(d) * 2 ** (400 // d) for d in divisors(400)) // 400
    assert lines[-1] == f"[z^400] {gauss}"


@pytest.mark.parametrize("argv, what", [
    (["count", "--class", "all", "--r", "8", "--n", "40", "--q", "2"], "P_{8,40} at q = 2"),
    (["count", "--class", "irreducible", "--r", "4", "--n", "40", "--symbolic"],
     "the composition table of P_{4,j}, j <= 40, in Z[q]"),
])
def test_oversized_formula_queries_exit_3_at_once(argv, what, monkeypatch, capsys):
    import time

    monkeypatch.delenv("FFCOUNT_BUDGET", raising=False)
    start = time.perf_counter()
    rc, out = run(argv)
    assert rc == 3 and out == ""
    assert f"budget exceeded: {what} requires" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_large_prime_q_answers_at_once():
    import time

    from ffcount.mv_counts import irr_exact

    q = 10**18 + 3  # prime
    start = time.perf_counter()
    rc, out = run(["count", "--class", "irreducible", "--r", "2", "--n", "2", "--q", str(q)])
    elapsed = time.perf_counter() - start
    assert rc == 0 and out.strip() == str(irr_exact(2, 2).evaluate(q))
    assert elapsed < 2.0


@pytest.mark.parametrize("n, q", [(6, 32), (12, 16)])
def test_verify_decomposable_mv_at_r_1_exits_2_before_composing(n, q):
    # the formula side refuses r = 1 before the oracle composes its 33.5M
    # pairs at (6, F_32) or sizes the over-budget ones at (12, F_16)
    import subprocess
    import time

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ffcount", "verify", "--class", "decomposable_mv",
         "--r", "1", "--n", str(n), "--q", str(q)],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2 and proc.stdout == ""
    assert "need r >= 2" in proc.stderr
    assert elapsed < 2.0, elapsed


def test_verify_sizes_the_oracle_before_an_exact_formula(monkeypatch):
    # the oracle refuses 2^400-odd reducible products at once; the exact
    # count at n = 400 grows a composition table for seconds first
    import subprocess
    import time

    monkeypatch.delenv("FFCOUNT_BUDGET", raising=False)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ffcount", "verify", "--class", "irreducible",
         "--r", "1", "--n", "400", "--q", "2"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3 and proc.stdout == ""
    assert "reducible witness products at n=400" in proc.stderr
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("argv", [
    ["--class", "irreducible", "--r", "0", "--n", "2"],
    ["--class", "powerful", "--r", "2", "--n", "2"],
])
def test_verify_checks_the_query_before_the_field(argv, capsys):
    # F_{2^27}'s log tables exceed the budget; a query outside the theory
    # still exits 2, so it is rejected before the field is built
    rc, out = run(["verify", *argv, "--q", str(2**27)])
    assert rc == 2 and out == ""
    assert "budget" not in capsys.readouterr().err


def test_verify_over_f65536_builds_its_field_at_once():
    import subprocess
    import sys
    import time

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ffcount", "verify", "--class", "reducible",
         "--r", "2", "--n", "1", "--q", "65536"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and "verified: True" in proc.stdout
    assert elapsed < 2.0


@pytest.mark.parametrize("argv", [
    ["census", "--n", "4"],
    ["families", "--family", "frobenius", "--h", "x^2+x"],
    ["verify", "--class", "irreducible", "--r", "2", "--n", "2"],
])
@pytest.mark.parametrize("q", [10**18 + 3, 2**60])
def test_field_beyond_the_budget_exits_3_before_any_table(argv, q, capsys):
    # census refuses q > 256; F_{2^60}'s log tables exceed the budget; F_p
    # holds no table, so families and verify refuse by what they would build
    import time

    if argv[0] == "census":
        expected = 2, "q <= 256"
    elif q == 2**60:
        expected = 3, f"log tables of F_{q}"
    elif argv[0] == "families":
        expected = 3, f"the degree-{2 * q} Frobenius composition"
    else:
        expected = 3, "witness products"
    start = time.perf_counter()
    rc, out = run(argv + ["--q", str(q)])
    assert rc == expected[0] and out == ""
    assert expected[1] in capsys.readouterr().err
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("argv", [
    ["verify", "--class", "irreducible", "--r", "1", "--n", "1"],
    ["families", "--family", "ritt2", "--l", "2", "--m", "3", "--z", "1", "--a", "1"],
])
def test_large_prime_field_builds_at_once(argv):
    # F_16777213 holds no table; building its log tables took about 35 s
    import subprocess
    import time

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ffcount", *argv, "--q", "16777213"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and "verified: True" in proc.stdout
    assert elapsed < 2.0


@pytest.mark.parametrize("argv, message", [
    (["--family", "S", "--q", "5", "--u", "1", "--s-elem", "1", "--eps", "1", "--m", "1",
      "--r-power", "15625"], "the degree-244140625 S composition"),
    (["--family", "frobenius", "--q", str(10**18 + 3), "--h", "x^2+x"],
     f"the degree-{2 * (10**18 + 3)} Frobenius composition"),
    (["--family", "frobenius", "--q", "2", "--h", "x^100000000+x"], "the term x^100000000"),
])
def test_family_beyond_the_budget_exits_3_before_it_is_built(argv, message, capsys):
    import time

    start = time.perf_counter()
    rc, out = run(["families", *argv])
    assert rc == 3 and out == ""
    assert message in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("cls", ["rel_irreducible", "abs_irreducible"])
@pytest.mark.parametrize("q, seconds", [(256, 1.0), (1024, 2.0)])
def test_extension_field_beyond_the_budget_exits_3_before_it_is_built(cls, q, seconds, capsys):
    # F_{q^2}'s q x q tables exceed the budget; building F_{q^2} itself takes
    # seconds at q = 256 and most of a minute at q = 1024, so the time gate
    # shows that it is refused before it is built
    import time

    start = time.perf_counter()
    rc, out = run(["verify", "--class", cls, "--r", "1", "--n", "2", "--q", str(q)])
    assert rc == 3 and out == ""
    assert f"q x q code tables over F_{q * q}" in capsys.readouterr().err
    assert time.perf_counter() - start < seconds


def test_census_bound_is_checked_before_the_field_is_built(capsys):
    import time

    start = time.perf_counter()
    rc, out = run(["census", "--n", "4", "--q", "1048573"])
    assert rc == 2 and out == ""
    assert "q <= 256" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("q, message", [
    ((10**9 + 7) * (10**9 + 9), "is not a prime power"),
    (2**89 - 1, "decided only below 3317044064679887385961981"),
])
def test_large_q_without_a_certified_prime_power_is_a_usage_error(q, message, capsys):
    rc, out = run(["count", "--class", "irreducible", "--r", "2", "--n", "2", "--q", str(q)])
    assert rc == 2 and out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("h, term", [("x^-1+x^2", "'x^-1'"), ("x^2+x^+1", "'x^+1'")])
def test_families_signed_exponent_is_a_usage_error(h, term, capsys):
    rc, out = run(["families", "--family", "frobenius", "--q", "2", "--h", h])
    assert rc == 2 and out == ""
    assert f"bad term {term}" in capsys.readouterr().err


# F_{101^2}: its q x q code tables (104,060,401 entries) exceed the default
# budget, yet its log tables build in a fraction of a second
@pytest.mark.parametrize("cls", [
    ["reducible"], ["irreducible"], ["rel_irreducible"], ["abs_irreducible"], ["powerful", "--s", "2"],
])
def test_degree_one_forms_no_product_so_needs_no_code_tables(cls):
    import time

    start = time.perf_counter()
    rc, out = run(["verify", "--class", *cls, "--r", "2", "--n", "1", "--q", "10201"])
    assert rc == 0 and "verified: True" in out
    assert time.perf_counter() - start < 2.0


def test_products_over_a_field_beyond_the_table_budget_exit_3(capsys):
    # 52,035,301 products of linear factors fit the budget; the tables do not
    rc, out = run(["verify", "--class", "reducible", "--r", "1", "--n", "2", "--q", "10201"])
    assert rc == 3 and out == ""
    assert "q x q code tables over F_10201 requires 104060401 items" in capsys.readouterr().err


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_families_frobenius_output_is_the_horner_composition(q):
    # f = x^p o h and phi(h) o x^p, printed as Horner's rule composes them
    from ffcount.ff import field_from_q
    from ffcount.uv_families import frobenius_map

    ctx = field_from_q(q)
    h = parse_upoly(ctx, "x^2+x")
    xp = UniPoly.monomial(ctx, ctx.p)

    def horner(outer, inner):
        out = UniPoly.from_codes(ctx, ())
        for code in reversed(outer.c):
            out = out * inner + UniPoly.from_codes(ctx, (code,))
        return out

    f = horner(xp, h)
    assert f == horner(frobenius_map(h), xp)
    want = [f"f = {f}", "label = Frobenius", f"  g = {xp}   h = {h}",
            f"  g = {frobenius_map(h)}   h = {xp}", "verified: True"]
    rc, out = run(["families", "--family", "frobenius", "--q", str(q), "--h", "x^2+x"])
    assert rc == 0 and out.splitlines() == want


def test_families_frobenius_is_linear_in_p():
    # x^p o h is h^p = phi(h)(x^p), no Horner loop over x^p
    import subprocess
    import sys
    import time

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ffcount", "families", "--family", "frobenius", "--q", "4099",
         "--h", "x^2+x"],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "verified: True"
    assert proc.stdout.startswith("f = x^8198+x^4099\n")
    assert elapsed < 1.0, elapsed


def test_closed_stdout_exits_141_without_usage():
    # the reader of the pipe is gone before the record is written
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-m", "ffcount", "census", "--n", "4", "--q", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert b"usage" not in err and b"Broken pipe" not in err, err
