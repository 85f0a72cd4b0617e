import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import quasifree.checks
import quasifree.choi
import quasifree.cli
from quasifree import (
    DimensionCap,
    InvalidOrder,
    NotCompletelyPositive,
    QuasifreeError,
    errors,
    exp_spectrum,
    number_operator,
)
from quasifree.cli import (
    _BLAS_THREAD_VARS,
    ParseError,
    _bench_instance,
    _numeric_pairs,
    format_matrix_document,
    main,
    parse_matrix_document,
)


def write_matrix(path, M):
    path.write_text(format_matrix_document(np.asarray(M, dtype=complex)))
    return str(path)


def matrix_json(M):
    return json.loads(format_matrix_document(np.asarray(M, dtype=complex)))


def channel_text(kind, A, B):
    return json.dumps({"kind": kind, "A": matrix_json(A), "B": matrix_json(B)})


def write_channel(path, kind, A, B):
    path.write_text(channel_text(kind, A, B))
    return str(path)


def test_matrix_document_round_trip(rng):
    M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    again = parse_matrix_document(json.loads(format_matrix_document(M)))
    assert np.array_equal(M, again)  # bit-identical


# (data, takes the vectorised path): every [re, im] list the parser may meet
PARSE_CASES = [
    ([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]], True),
    ([[5e-324, -2.2250738585072014e-308], [1e308, -1e-320]], True),
    ([[1, 2], [-3, 0]], True),
    ([[2**53 + 1, 0.5], [2**63 - 1, 0]], True),
    ([[2**63, 0], [2**63 + 1025, 0.5]], True),
    ([[2**63 + 1025, 1], [2**64 - 1, 0]], True),
    ([[2**63 + 1025, 2**64 - 1]], True),  # uint64
    ([[-(2**63) - 1, 0.5]], True),
    ([[2**64, 0]], True),
    ([[10**400, 0]], False),
    ([[True, 0.5], [False, 1]], True),  # bools promoted to numbers
    ([[True, False]], True),
    ([["1.5", 0], [0, "-2e-3"]], False),
    ([[None, 0]], False),
    ([["a", 0]], False),
    ([[0.5, 0], ["a", 0]], False),
    (json.loads("[[1e400, 0]]"), False),
    (json.loads("[[0, -1e400]]"), False),
    ([[float("nan"), 0]], False),
    ([[3]], False),
    ([[0.5, 0], [3]], False),
    ([[3, [4]]], False),
    ([[1, 2, 3]], False),
    ([{"re": 1, "im": 0}], False),
    ([[0.5, 0], (0.5, 0)], False),  # a tuple is not a JSON pair
    ([[1 + 2j, 0]], False),
]


def _entry_loop(data: list) -> np.ndarray:
    """Reference parse: each [re, im] entry read by float(), one at a time,
    with the CLI's ParseError messages."""
    out = np.empty(len(data), dtype=complex)
    for idx, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"entry {idx} is not a [re, im] pair")
        re, im = entry
        if isinstance(re, str) or isinstance(im, str):
            raise ParseError(f"entry {idx} is not a pair of numbers")
        try:
            re, im = float(re), float(im)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"entry {idx} is not a pair of numbers: {exc}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"entry {idx} is not finite")
        out[idx] = complex(re, im)
    return out


def _parsed(parse, arg):
    try:
        return parse(arg)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.mark.parametrize("data, vectorised", PARSE_CASES)
def test_vectorised_parse_matches_entry_loop(data, vectorised):
    assert (_numeric_pairs(data) is not None) == vectorised
    fast = _parsed(parse_matrix_document, {"rows": 1, "cols": len(data), "data": data})
    loop = _parsed(_entry_loop, data)
    if isinstance(loop, str):
        assert fast == loop
    else:
        assert fast.dtype == loop.dtype == complex
        assert fast.ravel().view(np.uint64).tolist() == loop.view(np.uint64).tolist()  # bitwise


def _nested_pairs_document(M):
    """The document as formatted with one [re, im] list per entry."""
    pairs = np.stack((M.real, M.imag), -1).reshape(-1, 2).tolist()
    return json.dumps({"rows": M.shape[0], "cols": M.shape[1], "data": pairs})


def test_format_matches_nested_pairs(rng):
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    M[0, 0], M[0, 1], M[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1e308)
    M[2] = M[2].real  # real entries with +0.0 imaginary parts
    assert format_matrix_document(M) == _nested_pairs_document(M)
    real = np.diag([0.25, -0.0, 1.0])
    assert format_matrix_document(real) == _nested_pairs_document(real.astype(complex))


def test_spectrum_output_matches_nested_pairs(tmp_path, capsys):
    X = np.array([[0.5, -0.0], [0.25j, -2.0]])
    path = write_matrix(tmp_path / "x.json", X)
    assert main(["spectrum", path]) == 0
    values = exp_spectrum(X.astype(complex))
    values = values[np.lexsort((values.imag, values.real))]
    nested = np.stack((values.real, values.imag), -1).tolist()
    assert capsys.readouterr().out == json.dumps(nested) + "\n"


def test_entropy_von_neumann(tmp_path, capsys):
    path = write_matrix(tmp_path / "q.json", 0.5 * np.eye(3))
    assert main(["entropy", path]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 3 * np.log(2)) < 1e-10


def test_entropy_renyi(tmp_path, capsys):
    path = write_matrix(tmp_path / "q.json", np.array([[0.5]]))
    assert main(["entropy", path, "--p", "2"]) == 0
    assert abs(float(capsys.readouterr().out) - np.log(2)) < 1e-10


def test_entropy_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["entropy", str(bad)]) == 2
    bad.write_text('{"rows": 1e400, "cols": 1, "data": [[0.5, 0]]}')
    assert main(["entropy", str(bad)]) == 2
    nonherm = write_matrix(tmp_path / "nh.json", np.array([[0, 1], [0, 0]]))
    assert main(["entropy", nonherm]) == 3
    ok = write_matrix(tmp_path / "ok.json", np.array([[0.5]]))
    assert main(["entropy", ok, "--p", "1"]) == 4
    assert main(["entropy", ok, "--p", "-2"]) == 4
    for p in ("nan", "inf", "-inf"):
        assert main(["entropy", ok, f"--p={p}"]) == 4
    assert "Renyi order" in capsys.readouterr().err


def test_entropy_refuses_a_bad_order_before_reading_the_document(tmp_path, capsys):
    # as evolve --steps: the flag is judged first, so a bad file with a bad
    # --p exits 4 (invalid flag), not 2 (parse error)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (bad, tmp_path / "missing.json"):
        assert main(["entropy", str(path), "--p", "1"]) == 4
    assert capsys.readouterr().err.count("Renyi order") == 2


def test_error_types_carry_documented_exit_codes():
    # the README's exit-code table; 0 is success and 1 a failed invariant
    documented = {NotCompletelyPositive: 5, InvalidOrder: 4, DimensionCap: 4}
    types = [getattr(errors, name) for name in dir(errors)]
    types = [t for t in types if isinstance(t, type) and issubclass(t, QuasifreeError)]
    for t in types:
        assert t.exit_code == documented.get(t, 3), t
    assert ParseError.exit_code == 2
    assert all(t.exit_code not in (0, 1) for t in (*types, ParseError))


def test_relent(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", np.array([[0.5]]))
    b = write_matrix(tmp_path / "b.json", np.array([[0.25]]))
    assert main(["relent", a, b]) == 0
    assert abs(float(capsys.readouterr().out) - 0.5 * np.log(4 / 3)) < 1e-10
    zero = write_matrix(tmp_path / "z.json", np.array([[0.0]]))
    assert main(["relent", a, zero]) == 3
    capsys.readouterr()


def test_non_numeric_entries_are_parse_errors(tmp_path, capsys):
    # numeric strings too: float() would read them as 1.5+2j and 1000
    for bad in (["a", 0], [None, 0], [10**400, 0], ["1.5", "2"], [" 1e3 ", 0]):
        doc = {"rows": 1, "cols": 1, "data": [bad]}
        with pytest.raises(ParseError):
            parse_matrix_document(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["entropy", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: entry 0 is not a pair of numbers")


@pytest.mark.parametrize(
    "rows, cols",
    [(2.7, 1.9), (2.0, 1), (1, 1.0), (True, "1"), (True, 1), (1, False), ("1", 1), (None, 1),
     ([1], 1), (float("inf"), 1)],
)
def test_non_integer_header_is_parse_error(tmp_path, capsys, rows, cols):
    doc = {"rows": rows, "cols": cols, "data": [[0.5, 0], [0.25, 0]]}
    with pytest.raises(ParseError, match="rows and cols must be JSON integers"):
        parse_matrix_document(doc)
    path = tmp_path / "header.json"
    path.write_text(json.dumps(doc))
    assert main(["entropy", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: rows and cols must be JSON integers")


def test_entries_that_are_not_json_numbers_are_refused():
    # a numpy scalar never comes from a JSON document, and numpy alone converts
    with pytest.raises(ParseError, match="^entries must be \\[re, im\\] pairs of JSON numbers$"):
        parse_matrix_document({"rows": 1, "cols": 1, "data": [[np.float64(0.5), 0.0]]})


def test_integer_header_still_parses():
    M = parse_matrix_document({"rows": 2, "cols": 1, "data": [[0.5, 0], [0.25, -0.0]]})
    assert M.shape == (2, 1) and np.array_equal(M.ravel(), [0.5, 0.25])
    with pytest.raises(ParseError, match="rows\\*cols"):
        parse_matrix_document({"rows": 10**400, "cols": 1, "data": [[0.5, 0]]})


def test_linalg_failure_exit_code(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    path = write_matrix(tmp_path / "q.json", np.diag([0.25, 0.5]))
    assert main(["entropy", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "did not converge" in err


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"[" * 100_000], ids=["not-utf8", "nested"])
def test_undecodable_document_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_out_of_memory_is_exit_4(monkeypatch, capsys):
    for var in _BLAS_THREAD_VARS:  # keeps bench in-process
        monkeypatch.setenv(var, "1")
    # d^2 doubles are 1.1 EiB, beyond any address space: numpy's request fails
    # at once, whatever the system's overcommit policy, and nothing is allocated
    assert main(["bench", "--dims", "400000000"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


# (argv with {doc} for the document's path, document, exit code, stderr)
CLI_REFUSALS = {
    "rows 0": (["entropy", "{doc}"], '{"rows": 0, "cols": 1, "data": []}', 2,
               "error: rows and cols must be positive"),
    "channel list": (["jamiolkowski", "{doc}"], "[]", 2,
                     "error: channel document must be a JSON object"),
    "channel without B": (["jamiolkowski", "{doc}"],
                          json.dumps({"kind": "lambda", "A": {"rows": 1, "cols": 1, "data": [[0.5, 0]]}}),
                          2, "error: channel document missing field 'B'"),
    "trials 0": (["oracle-check", "--trials", "0"], None, 4,
                 "error: --trials must be >= 1, got 0"),
    "dims x": (["bench", "--dims", "x"], None, 4,
               "error: --dims must be a comma-separated list of integers: x"),
    "dims 0": (["bench", "--dims", "0"], None, 4, "error: --dims entries must be positive"),
    "dims 3,,4": (["bench", "--dims", "3,,4"], None, 4,
                  "error: --dims must be a comma-separated list of integers: 3,,4"),
    "dims 100,": (["bench", "--dims", "100,"], None, 4,
                  "error: --dims must be a comma-separated list of integers: 100,"),
    "dims ,": (["bench", "--dims", ","], None, 4,
               "error: --dims must be a comma-separated list of integers: ,"),
    "choi subnormal det B": (["choi", "{doc}"],
                             channel_text("lambda", np.zeros((2, 2)), 1e-155 * np.eye(2)), 3,
                             "error: det is no normal double: "
                             f"log|det| = {2 * math.log(1e-155):.6e}"),
    "channel without kind": (["choi", "{doc}"], json.dumps({"A": {}, "B": {}}), 2,
                             "error: channel document missing field 'kind'"),
    "spectrum 2x3": (["spectrum", "{doc}"], json.dumps(matrix_json(np.zeros((2, 3)))), 3,
                     "error: expected a square X, got shape (2, 3)"),
    "oracle-check d 7": (["oracle-check", "--d", "7"], None, 4,
                         "error: dense Choi/Stinespring constructions refuse d=7: their tables "
                         "live on 2d=14 modes, and they reach d=6"),
    "oracle-check d 0": (["oracle-check", "--d", "0"], None, 4, "error: --d must be >= 1, got 0"),
}
# the library judges every operand, so each command that reads a channel or
# a symbol refuses a bad one alike, with exit 3: (readers, document, line)
CHANNEL_READERS = (["validate", "{doc}"], ["evolve", "{doc}", "{doc}"], ["jamiolkowski", "{doc}"],
                   ["choi", "{doc}"])
SYMBOL_READERS = (["validate", "{doc}"], ["entropy", "{doc}"], ["relent", "{doc}", "{doc}"])
OPERAND_FAULTS = {
    "channel 2x3 A": (CHANNEL_READERS, channel_text("lambda", np.zeros((2, 3)), np.zeros((2, 2))),
                      "error: expected a square A, got shape (2, 3)"),
    "channel A 2x2, B 3x3": (CHANNEL_READERS, channel_text("gamma", np.eye(2), np.eye(3)),
                             "error: A and B shapes differ: (2, 2) vs (3, 3)"),
    "channel kind delta": (CHANNEL_READERS, channel_text("delta", np.eye(2), np.eye(2)),
                           "error: kind must be 'lambda' or 'gamma', got 'delta'"),
    "symbol 2x3": (SYMBOL_READERS, json.dumps(matrix_json(np.zeros((2, 3)))),
                   "error: expected a square matrix, got shape (2, 3)"),
}
CLI_REFUSALS.update(
    (f"{case} {argv[0]}", (argv, text, 3, line))
    for case, (readers, text, line) in OPERAND_FAULTS.items()
    for argv in readers
)


@pytest.mark.parametrize("case", sorted(CLI_REFUSALS))
def test_cli_refusals_are_worded(tmp_path, capsys, case):
    argv, doc, code, line = CLI_REFUSALS[case]
    path = tmp_path / "doc.json"
    if doc is not None:
        path.write_text(doc)
    assert main([arg.format(doc=path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


# argv that argparse refuses, and the line it words the refusal with
ARGV_FAULTS = {
    "steps x": (["evolve", "c.json", "s.json", "--steps", "x"],
                "error: argument --steps: invalid int value: 'x'"),
    "p x": (["entropy", "m.json", "--p", "x"], "error: argument --p: invalid float value: 'x'"),
    "d x": (["oracle-check", "--d", "x"], "error: argument --d: invalid int value: 'x'"),
    "no command": ([], "error: the following arguments are required: command"),
    "unknown flag": (["validate", "m.json", "--bogus"], "error: unrecognized arguments: --bogus"),
    "missing argument": (["relent", "m.json"],
                         "error: the following arguments are required: matrix2"),
}


@pytest.mark.parametrize("case", sorted(ARGV_FAULTS))
def test_argv_faults_are_bad_flags(capsys, case):
    # argparse's refusals take main's one error line and exit code, as a
    # flag value out of range does
    argv, line = ARGV_FAULTS[case]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0 and "oracle-check" in capsys.readouterr().out


def test_evolve_identity(tmp_path, capsys):
    ch = write_channel(tmp_path / "c.json", "lambda", np.eye(2), np.zeros((2, 2)))
    st = write_matrix(tmp_path / "q.json", np.diag([0.8, 0.1]))
    assert main(["evolve", ch, st, "--steps", "10"]) == 0
    out = parse_matrix_document(json.loads(capsys.readouterr().out))
    assert np.abs(out - np.diag([0.8, 0.1])).max() < 1e-12


def test_evolve_constant_and_worked_example(tmp_path, capsys):
    Q0 = np.diag([0.4, 0.6])
    ch = write_channel(tmp_path / "c.json", "lambda", np.zeros((2, 2)), Q0)
    st = write_matrix(tmp_path / "q.json", np.diag([1.0, 0.0]))
    assert main(["evolve", ch, st]) == 0
    out = parse_matrix_document(json.loads(capsys.readouterr().out))
    assert np.abs(out - Q0).max() < 1e-12

    ch = write_channel(tmp_path / "c2.json", "lambda", np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2))
    assert main(["evolve", ch, st]) == 0
    out = parse_matrix_document(json.loads(capsys.readouterr().out))
    assert np.abs(out - np.diag([1.0, 0.5])).max() < 1e-12


def test_evolve_not_cp_exit_code(tmp_path, capsys):
    ch = write_channel(tmp_path / "c.json", "lambda", np.eye(2), 0.1 * np.eye(2))
    st = write_matrix(tmp_path / "q.json", np.diag([0.5, 0.5]))
    assert main(["evolve", ch, st]) == 5
    capsys.readouterr()


def test_evolve_bad_steps(tmp_path, capsys):
    ch = write_channel(tmp_path / "c.json", "lambda", np.eye(2), np.zeros((2, 2)))
    st = write_matrix(tmp_path / "q.json", np.diag([0.5, 0.5]))
    assert main(["evolve", ch, st, "--steps", "0"]) == 4
    capsys.readouterr()


def test_validate(tmp_path, capsys):
    ok = write_matrix(tmp_path / "q.json", np.diag([0.5, 0.5]))
    assert main(["validate", ok]) == 0
    ch = write_channel(tmp_path / "c.json", "gamma", 0.5 * np.eye(2), 0.25 * np.eye(2))
    assert main(["validate", ch]) == 0
    bad = write_matrix(tmp_path / "b.json", np.diag([1.5, 0.5]))
    assert main(["validate", bad]) == 3
    capsys.readouterr()


def test_jamiolkowski_output(tmp_path, capsys):
    ch = write_channel(tmp_path / "c.json", "lambda", np.eye(2), np.zeros((2, 2)))
    assert main(["jamiolkowski", ch]) == 0
    out = parse_matrix_document(json.loads(capsys.readouterr().out))
    eye = np.eye(2)
    assert np.abs(out - 0.5 * np.block([[eye, eye], [eye, eye]])).max() < 1e-12


def test_choi_output_and_singular_b(tmp_path, capsys):
    ch = write_channel(tmp_path / "c.json", "lambda", np.zeros((2, 2)), np.eye(2))
    assert main(["choi", ch]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["scale"] - 1.0) < 1e-12
    arg = parse_matrix_document(doc["argument"])
    assert np.abs(arg[:2, :2]).max() < 1e-12 and np.abs(arg[2:, 2:] - np.eye(2)).max() < 1e-12

    ident = write_channel(tmp_path / "i.json", "lambda", np.eye(2), np.zeros((2, 2)))
    assert main(["choi", ident]) == 3
    capsys.readouterr()


def test_spectrum(tmp_path, capsys):
    path = write_matrix(tmp_path / "x.json", np.diag([2.0, 3.0]))
    assert main(["spectrum", path]) == 0
    values = [complex(re, im) for re, im in json.loads(capsys.readouterr().out)]
    assert np.allclose(sorted(v.real for v in values), [1, 2, 3, 6])


def test_spectrum_beyond_double_range_is_exit_3(tmp_path, capsys):
    path = write_matrix(tmp_path / "x.json", np.diag([1e200, 1e200]))
    assert main(["spectrum", path]) == 3
    captured = capsys.readouterr()
    assert "Infinity" not in captured.out and "outside double range" in captured.err


OVERFLOWS = {
    "validate symbol": (["validate", "diag"], 3),
    "entropy": (["entropy", "off"], 3),
    "validate huge A": (["validate", "hugeA"], 5),
    "validate huge B": (["validate", "hugeB"], 5),
    "evolve": (["evolve", "hugeA", "half"], 5),
    "jamiolkowski": (["jamiolkowski", "hugeA"], 5),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_an_overflowing_document_is_refused_once_without_a_warning(case, tmp_path):
    # (M + M*)/2, B + B* or A*A overflows: these printed results and NaN tokens, with exit 0
    docs = {
        "diag": write_matrix(tmp_path / "diag.json", np.diag([1e308, 1e308])),
        "off": write_matrix(tmp_path / "off.json", [[0.5, 1e308], [1e308, 0.5]]),
        "half": write_matrix(tmp_path / "half.json", 0.5 * np.eye(2)),
        "hugeA": write_channel(tmp_path / "a.json", "lambda", 1e200 * np.eye(2), 0.1 * np.eye(2)),
        "hugeB": write_channel(tmp_path / "b.json", "lambda", np.eye(2) / 2, np.diag([1e308, 0.1])),
    }
    argv, code = OVERFLOWS[case]
    cmd = [sys.executable, "-m", "quasifree", argv[0], *(docs[name] for name in argv[1:])]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.count("error:") == 1 and "Warning" not in proc.stderr


def test_oracle_check_cli(capsys):
    assert main(["oracle-check", "--d", "2", "--trials", "3", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert "all checks passed" in first
    assert main(["oracle-check", "--d", "2", "--trials", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first  # seeded determinism
    assert main(["oracle-check", "--d", "20"]) == 4
    capsys.readouterr()


def test_oracle_check_refuses_beyond_a_lowered_cap_before_any_work(monkeypatch, capsys):
    # the library's one cap is the CLI's reach: lowering it moves both
    monkeypatch.setattr(quasifree.choi, "DENSE_CHOI_CAP", 3)
    assert main(["oracle-check", "--d", "3", "--trials", "2"]) == 0
    assert "all checks passed" in capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("oracle-check started work it cannot finish")

    for draw in ("random_symbol", "random_channel"):
        monkeypatch.setattr(quasifree.checks, draw, refuse)
    assert main(["oracle-check", "--d", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: dense Choi/Stinespring constructions refuse d=4: "
        "their tables live on 2d=8 modes, and they reach d=3\n"
    )


def test_oracle_check_fails_on_a_nan_deviation(monkeypatch, capsys):
    monkeypatch.setattr(quasifree.checks, "von_neumann_entropy", lambda Q: np.nan)
    assert main(["oracle-check", "--d", "2", "--trials", "2"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"von-neumann-vs-dense +max-dev +nan .* FAIL", out)
    assert out.endswith("FAILED\n")


def test_the_dense_caps_read_no_environment(monkeypatch, capsys):
    monkeypatch.setenv("QUASIFREE_MAX_ORACLE_D", "3")
    assert number_operator(4).shape == (16, 16)
    assert main(["oracle-check", "--d", "7"]) == 4
    assert capsys.readouterr().err == (
        "error: dense Choi/Stinespring constructions refuse d=7: "
        "their tables live on 2d=14 modes, and they reach d=6\n"
    )


@pytest.mark.parametrize("argv", [["oracle-check", "--d", "2"], ["bench", "--dims", "5"]])
def test_negative_seed_is_a_bad_flag(argv, capsys):
    # refused before any work, not a ValueError from numpy's generator
    assert main([*argv, "--seed", "-1"]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --seed must be >= 0, got -1\n")


def test_bench_smoke(capsys):
    assert main(["bench", "--dims", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "entropy_s" in out and len(out.strip().splitlines()) == 3


def test_bench_reruns_itself_with_blas_pinned(monkeypatch, capsys):
    for var in _BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert main(["bench", "--dims", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["d", "entropy_s", "evolve_s", "dense_dim_avoided"]
    assert len(rows) == 1 and rows[0].split()[0] == "3"


@pytest.mark.parametrize("d", [100, 200])
def test_bench_instance_is_a_valid_channel(d):
    # A must stay clear of the unit ball's edge, or B = (1 - A*A)/2 goes
    # negative and bench exits 5 on some seeds
    for seed in range(40):
        Q, channel = _bench_instance(d, np.random.default_rng(seed))
        assert "eigenvalues" in Q._cache  # read outside entropy_s's timer
        assert np.linalg.norm(channel.A, 2) < 0.9


def test_console_entry_point(tmp_path):
    path = write_matrix(tmp_path / "q.json", np.array([[0.5]]))
    proc = subprocess.run(
        [sys.executable, "-m", "quasifree", "entropy", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout) - np.log(2)) < 1e-10
