import json
import subprocess
import sys

import numpy as np
import pytest

from quasifree import (
    DimensionCap,
    InvalidOrder,
    NotCompletelyPositive,
    QuasifreeError,
    errors,
    exp_spectrum,
)
from quasifree.cli import (
    ParseError,
    _numeric_pairs,
    _parse_entries,
    format_matrix_document,
    main,
    parse_matrix_document,
)


def write_matrix(path, M):
    path.write_text(format_matrix_document(np.asarray(M, dtype=complex)))
    return str(path)


def write_channel(path, kind, A, B):
    doc = {
        "kind": kind,
        "A": json.loads(format_matrix_document(np.asarray(A, dtype=complex))),
        "B": json.loads(format_matrix_document(np.asarray(B, dtype=complex))),
    }
    path.write_text(json.dumps(doc))
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
    ([[2**63 + 1025, 2**64 - 1]], False),  # uint64
    ([[-(2**63) - 1, 0.5]], False),
    ([[2**64, 0]], False),
    ([[10**400, 0]], False),
    ([[True, 0.5], [False, 1]], True),  # bools promoted to numbers
    ([[True, False]], False),
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


def _parsed(parse, arg):
    try:
        return parse(arg)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.mark.parametrize("data, vectorised", PARSE_CASES)
def test_vectorised_parse_matches_entry_loop(data, vectorised):
    assert (_numeric_pairs(data) is not None) == vectorised
    fast = _parsed(parse_matrix_document, {"rows": 1, "cols": len(data), "data": data})
    loop = _parsed(_parse_entries, data)
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
    for bad in (["a", 0], [None, 0], [10**400, 0]):
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


def test_oracle_check_cli(capsys):
    assert main(["oracle-check", "--d", "2", "--trials", "3", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert "all checks passed" in first
    assert main(["oracle-check", "--d", "2", "--trials", "3", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first  # seeded determinism
    assert main(["oracle-check", "--d", "20"]) == 4
    capsys.readouterr()


def test_bench_smoke(capsys):
    assert main(["bench", "--dims", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "entropy_s" in out and len(out.strip().splitlines()) == 3


def test_console_entry_point(tmp_path):
    path = write_matrix(tmp_path / "q.json", np.array([[0.5]]))
    proc = subprocess.run(
        [sys.executable, "-m", "quasifree", "entropy", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout) - np.log(2)) < 1e-10
