import hashlib
import json
import random
import sys

import pytest

from oracles import fuzz_argv, fuzz_text, parse_element
from preproj import cli
from preproj.cli import dispatch, main, to_json
from preproj.dynkin import build_extended, parse_type
from preproj.errors import InternalInconsistency
from preproj.pathalg import MembershipCertificate, check_certificate, parse_path
from preproj.weights import parse_field_elem, parse_weight


def run(*argv):
    return dispatch(list(argv))


def test_decompose_spec_example():
    code, out = run("decompose", "--type", "~A5", "--weights", "0,0,1,0,0,0",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [c["type"] for c in data["components"]] == ["A1", "A3"]
    assert data["components"][1]["vertices"] == [3, 4, 5]
    assert data["translation"] == {"1": 1, "3": 5, "4": 4, "5": 3}


def test_knit_spec_example():
    code, out = run("knit", "--type", "~D5", "--S", "0,5", "--target", "4",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kernel"] == 1
    assert data["multiplicities"] == {"0": 1, "5": 1}
    assert any(flags == "b" for _, _, _, flags in data["pattern"])


def test_intersect_spec_example():
    code, out = run("intersect", "--type", "~E8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == list(range(1, 9))
    assert all(data["gamma"][i][i] == -2 for i in range(8))


def test_json_roundtrip_byte_identical():
    for argv in (["decompose", "--type", "~A5", "--weights", "0,0,1,0,0,0"],
                 ["knit", "--type", "~D5", "--S", "0,5", "--target", "4"],
                 ["intersect", "--type", "~D6"],
                 ["presentation", "--type", "~A3", "--weights", "0,0,0,1"],
                 ["resolve", "--type", "~A4"]):
        code, out = run(*argv, "--format", "json")
        assert code == 0
        assert to_json(json.loads(out)) == out


def test_text_and_json_numeric_content_agree():
    code, text = run("intersect", "--type", "~D4")
    code2, js = run("intersect", "--type", "~D4", "--format", "json")
    assert code == code2 == 0
    rows = [[int(x) for x in line.split()] for line in text.splitlines()[1:]]
    assert rows == json.loads(js)["gamma"]

    code, text = run("decompose", "--type", "~A5", "--weights", "0,0,1,0,0,0")
    data = json.loads(run("decompose", "--type", "~A5", "--weights",
                          "0,0,1,0,0,0", "--format", "json")[1])
    assert f"I_lambda = {data['i_lambda']}" in text


def test_domain_error_exit_code():
    code, out = run("decompose", "--type", "~A5", "--weights", "0,0,1")
    assert code == 1 and out.startswith("error:")
    code, out = run("knit", "--type", "~A5", "--S", "0", "--target", "3")
    assert code == 1 and "~D" in out


def test_usage_error_exit_code():
    code, _ = run("no-such-command")
    assert code == 2
    code, _ = run("decompose")
    assert code == 2


def test_zero_denominator_weight_exits_1(capsys):
    for weights in ("1/0,0,1,0,0,0", "1/2+1/0 i,0,1,0,0,0"):
        code = main(["decompose", "--type", "~A5", "--weights", weights])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: zero denominator")


def test_wrong_length_weight_exits_1(capsys):
    """Every --weights consumer applies the one length rule of weights."""
    for argv, want in ((["decompose", "--type", "~A5", "--weights", "0,0,1"],
                        "weight has 3 entries but ~A5 has 6 vertices"),
                       (["presentation", "--type", "~A3", "--weights", "1,0,0,0,0"],
                        "weight has 5 entries but ~A3 has 4 vertices")):
        for fmt in ([], ["--format", "json"]):
            code = main(argv + fmt)
            out, err = capsys.readouterr()
            assert (code, out, err) == (1, "", f"error: {want}\n")


def test_bad_s_entry_is_usage_error(capsys):
    code = main(["knit", "--type", "~D5", "--S", "0,x", "--target", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage:")
    assert "argument --S: expected comma-separated vertex indices, got '0,x'" in err


def test_internal_inconsistency_is_reported(monkeypatch, capsys):
    def broken(t):
        raise InternalInconsistency("gamma differs from -C")

    monkeypatch.setattr(cli, "intersection_matrix", broken)
    code = main(["intersect", "--type", "~D4"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "internal inconsistency: gamma differs from -C\n"


def test_verify_intersection_propagates_programming_errors(monkeypatch):
    def broken(t):
        raise TypeError("not a domain error")

    monkeypatch.setattr(cli, "intersection_matrix", broken)
    with pytest.raises(TypeError, match="not a domain error"):
        dispatch(["verify", "--suite", "intersection"])


def test_verify_intersection_reports_inconsistency_as_fail(monkeypatch):
    def broken(t):
        raise InternalInconsistency("gamma differs from -C")

    monkeypatch.setattr(cli, "intersection_matrix", broken)
    code, out = dispatch(["verify", "--suite", "intersection"])
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "FAIL intersection-A2: gamma differs from -C"
    assert all(line.startswith("FAIL") for line in lines[:-1])
    assert lines[-1] == f"0/{len(lines) - 1} fixtures passed"


# sha256 of `verify --suite maps --format json`; the output carries every
# fixture's certificate term count, so a changed certificate changes it
MAPS_JSON_SHA256 = "ee0a1680b605323de45c0ba19ad7e661bb26d92b84f9c29fce8433cfc27e0ef2"


def test_verify_suite_maps_json_is_frozen():
    code, out = run("verify", "--suite", "maps", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MAPS_JSON_SHA256


# sha256 of the stdout of `verify --suite all --format json`: every suite's
# records, so any changed result, certificate or layout changes it
VERIFY_ALL_JSON_SHA256 = "fa3296425ebb90afd9e120c3d343552b197191b9fa9285df2f70b9ae32fa2467"


def test_verify_suite_all_json_is_frozen(capsys):
    code = main(["verify", "--suite", "all", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256


def test_verify_suite_intersection():
    code, out = run("verify", "--suite", "intersection")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def test_verify_suite_knitting_json():
    code, out = run("verify", "--suite", "knitting", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    ids = [r["id"] for r in data["results"]]
    assert ids == sorted(ids)


def _path_of(q, text):
    body, ends = text.rsplit(":", 1)
    return parse_path(q, body, source=int(ends.split("->")[0]))


def test_knit_e7_paper_case_resolves():
    argv = ["knit", "--type", "~E7", "--S", "0,6", "--target", "5", "--maps"]
    code, out = run(*argv)
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[-2:]] == ["psi", "phi"]
    code, out = run(*argv, "--format", "json")
    assert code == 0
    maps = json.loads(out)["maps"]
    assert maps["resolved"] is True
    assert len(maps["psi"]) == len(maps["phi"]) == 4
    t = parse_type("~E7")
    q = build_extended(t)
    assert maps["certificates"]
    for rec in maps["certificates"]:
        terms = tuple((parse_field_elem(x["coef"]), _path_of(q, x["left"]), x["vertex"],
                       _path_of(q, x["right"])) for x in rec["terms"])
        cert = MembershipCertificate(parse_weight(rec["weight"]),
                                     parse_element(q, rec["element"]), terms)
        assert check_certificate(t, cert)


def test_decompose_weights_fuzz(capsys):
    """Seeded argv for `decompose --weights`: exit 0, 1 or 2, never a traceback."""
    rng = random.Random(43)
    valid = ("0", "1", "2", "1/2", "2i", "1/2+i", "-1", "3-2i", "1/3 - 2/5 i")
    codes = set()
    for _ in range(400):
        t, n = rng.choice([("~A5", 6), ("~D4", 5), ("~E6", 7)])
        k = n if rng.random() < 0.8 else rng.randint(0, n + 2)
        text = ",".join(fuzz_text(rng) if rng.random() < 0.1 else rng.choice(valid)
                        for _ in range(k))
        argv = ["decompose", "--type", t] + (
            ["--weights=" + text] if rng.random() < 0.5 else ["--weights", text])
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        codes.add(code)
    assert codes == {0, 1, 2}


HUGE_RANKS = (["dims", "--type", "A99999999999"], ["resolve", "--type", "~D4000"],
              ["decompose", "--type", "~A1200", "--weights", ",".join(["1"] + ["0"] * 1200)])


@pytest.mark.parametrize("argv", HUGE_RANKS, ids=lambda argv: argv[0])
def test_huge_ranks_are_domain_errors(argv, capsys):
    # these ended in a MemoryError in graded_dims_pi and in a RecursionError
    # in _compositions and in _canonical_isomorphism
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


# one digit more than int() takes from a string; 0 means no limit
INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVER_LONG = "1" * (INT_DIGITS_LIMIT + 1)
OVER_LONG_NUMBERS = [
    (["decompose", "--type", "~A2", "--weights", f"{OVER_LONG},0,0"], 1, "too many digits"),
    (["decompose", "--type", "~A2", "--weights", f"0,1/{OVER_LONG},0"], 1, "too many digits"),
    (["decompose", "--type", "~A2", "--weights", f"0,0,1-{OVER_LONG}i"], 1, "too many digits"),
    (["decompose", "--type", f"~A{OVER_LONG}", "--weights", "0"], 1, "supports n <= 100"),
    (["knit", "--type", "~D5", "--S", "0,5", "--target", OVER_LONG], 2,
     "argument --target: expected a vertex index"),
    (["knit", "--type", "~D5", "--S", f"0,{OVER_LONG}", "--target", "4"], 2,
     "argument --S: expected comma-separated vertex indices"),
]


@pytest.mark.skipif(INT_DIGITS_LIMIT == 0, reason="int() takes any number of digits")
@pytest.mark.parametrize("argv,code,err", OVER_LONG_NUMBERS,
                         ids=["weights-real", "weights-denominator", "weights-imaginary",
                              "type-rank", "knit-target", "knit-S"])
def test_over_long_numbers_are_domain_or_usage_errors(argv, code, err, capsys):
    # int() raised ValueError on these, a traceback or argparse's generic message
    assert main(argv) == code
    out, got = capsys.readouterr()
    assert out == "" and "Traceback" not in got and err in got
    assert got.startswith("error:" if code == 1 else "usage:")


@pytest.mark.skipif(INT_DIGITS_LIMIT == 0, reason="int() takes any number of digits")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_computed_part_too_long_to_print_is_a_domain_error(fmt, capsys):
    # the weight parses, but the presentation's products have more digits
    # than str() prints; that ended in a ValueError traceback
    nines = "9" * INT_DIGITS_LIMIT
    argv = ["presentation", "--type", "~A2", "--weights", f"{nines},{nines},{nines}",
            "--format", fmt]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error:") and "too many digits to print" in err


KNIT_D5 = ["knit", "--type", "~D5"]

# numbers in other scripts' digits or with an underscore, which
# str.isdecimal, int() and \d let through, and the exit code and message
# each gets now: (argv, exit code, tail of stderr)
NON_ASCII_NUMBERS = [
    (["dims", "--type", "D\u0665"], 1, "error: cannot parse Dynkin type 'D\u0665'\n"),
    (["intersect", "--type", "~E\u0666"], 1, "error: cannot parse Dynkin type '~E\u0666'\n"),
    (KNIT_D5 + ["--S", "0,\u0665", "--target", "\u0664"], 2,
     "argument --S: expected comma-separated vertex indices, got '0,\u0665'\n"),
    (KNIT_D5 + ["--S", "0,5", "--target", "\u0664"], 2,
     "argument --target: expected a vertex index, got '\u0664'\n"),
    (KNIT_D5 + ["--S", "0,5", "--target", "1_0"], 2,
     "argument --target: expected a vertex index, got '1_0'\n"),
    (KNIT_D5 + ["--S", "0,1_0", "--target", "4"], 2,
     "argument --S: expected comma-separated vertex indices, got '0,1_0'\n"),
    (["decompose", "--type", "~A5", "--weights", "\u0661/\u0662,0,0,0,0,0"], 1,
     "error: cannot parse field element '\u0661/\u0662'\n"),
    (["decompose", "--type", "~A5", "--weights", "1/2 + \u0663 i,0,0,0,0,0"], 1,
     "error: cannot parse field element '1/2 + \u0663 i'\n"),
]


@pytest.mark.parametrize("argv,code,err", NON_ASCII_NUMBERS,
                         ids=["dims-type", "intersect-type", "knit-S", "knit-target",
                              "knit-target-underscore", "knit-S-underscore", "weights-real",
                              "weights-imaginary"])
def test_numbers_are_ascii(argv, code, err, capsys):
    assert main(argv) == code
    out, got = capsys.readouterr()
    assert out == "" and got.endswith(err)


# the ASCII forms of those inputs, with the spaces and signs they allowed
# before: sha256 of their (argv, exit code, stdout, stderr), taken before
# the number grammar became ASCII-only
ASCII_NUMBERS = [
    ["dims", "--type", "D5"], ["dims", "--type", " D5 "],
    KNIT_D5 + ["--S", "0,5", "--target", "4"], KNIT_D5 + ["--S", " 0 , +5 ", "--target", " +4 "],
    KNIT_D5 + ["--S", "0,5", "--target", "10"], KNIT_D5 + ["--S", "0,10", "--target", "4"],
    KNIT_D5 + ["--S", "0,5", "--target", "-4"],
    ["decompose", "--type", "~A5", "--weights", "1/2,0,0,0,0,0"],
    ["decompose", "--type", "~A5", "--weights", " +1/2 , 0,0,0,0,-3/4 i"],
]
ASCII_NUMBERS_SHA256 = "6656f6c21b8d38e02a7e45d6221e83b64406e22afc3498adbce7e6ec5ce6117f"


def test_ascii_numbers_keep_their_output(capsys):
    h = hashlib.sha256()
    for argv in ASCII_NUMBERS:
        code = main(argv)
        out, err = capsys.readouterr()
        h.update(repr((argv, code, out, err)).encode())
    assert h.hexdigest() == ASCII_NUMBERS_SHA256


def test_verify_takes_no_cap(capsys):
    assert main(["verify", "--suite", "maps", "--cap", "24"]) == 2
    assert "unrecognized arguments: --cap 24" in capsys.readouterr().err


def test_subcommand_argv_fuzz(capsys):
    """Seeded argv for every subcommand but decompose: dispatch returns
    exit code 0, 1 or 2 and lets no exception escape."""
    rng = random.Random(47)
    codes = set()
    for _ in range(300):
        argv = fuzz_argv(rng)
        try:
            code, out = dispatch(argv)
        except Exception as exc:  # any escaping exception is the failure
            raise AssertionError(f"{argv}: {exc!r}") from exc
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out, argv
        codes.add(code)
    assert codes == {0, 1, 2}


def test_json_output_builds_no_text(monkeypatch):
    # the text lines, and the pattern grid among them, are made only for text
    calls = []

    def grid(r):
        calls.append(r)
        return "grid"

    monkeypatch.setattr(cli, "render_pattern", grid)
    argv = ["knit", "--type", "~D5", "--S", "0,5", "--target", "4", "--ascii"]
    assert run(*argv, "--format", "json") == run(*argv[:-1], "--format", "json")
    assert calls == []
    code, out = run(*argv)
    assert code == 0 and out.splitlines()[3] == "grid" and len(calls) == 1
