"""CLI fuzz test: arbitrary JSON matrix and channel documents, fed to the
in-process ``main``, must end in a documented exit code and never raise."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasifree.cli import main

#: success, parse error, invalid input, bad flag, not CP; 1 is reserved for
#: a failed oracle-check invariant and never comes from these commands
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
finite = st.floats(0.0, 1.0) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2, 2)
pairs = st.lists(finite | st.just(-0.0), min_size=2, max_size=2)
#: what may stand in for one [re, im] pair: non-finite or huge numbers,
#: strings, wrong lengths, nesting, objects
bad_entries = st.lists(st.floats() | st.integers() | st.text(max_size=3), max_size=3) | json_values


@st.composite
def matrix_documents(draw, dim=None):
    """Mostly well-formed documents (diagonal ones in [0, 1] are symbols and
    valid channel parts), each with at most one defect: a bad entry, a bad
    header field, or no matrix document at all.  ``dim`` fixes a square
    shape."""
    rows = dim or draw(st.integers(1, 3))
    cols = rows if dim or draw(st.booleans()) else draw(st.integers(1, 3))
    n = rows * cols
    if rows == cols and draw(st.booleans()):
        diagonal = draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows))
        data = [[diagonal[i // cols], 0.0] if i % (cols + 1) == 0 else [0.0, 0.0] for i in range(n)]
    else:
        data = draw(st.lists(pairs, min_size=n, max_size=n))
    doc = {"rows": rows, "cols": cols, "data": data}
    defect = draw(st.sampled_from(["none"] * 6 + ["entry", "field", "document"]))
    if defect == "entry":
        data[draw(st.integers(0, n - 1))] = draw(bad_entries)
    elif defect == "field":
        doc[draw(st.sampled_from(["rows", "cols", "data"]))] = draw(json_values)
    elif defect == "document":
        return draw(json_values)
    return doc


@st.composite
def channel_documents(draw):
    dim = draw(st.integers(1, 3) | st.none())
    return {
        "kind": draw(st.sampled_from(["lambda", "gamma"]) | json_values),
        "A": draw(matrix_documents(dim)),
        "B": draw(matrix_documents(dim)),
    }


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(matrix=matrix_documents(), other=matrix_documents(), channel=channel_documents())
def test_arbitrary_documents_exit_with_documented_codes(matrix, other, channel):
    with tempfile.TemporaryDirectory() as tmp:
        m, o, c = (str(Path(tmp) / f"{name}.json") for name in "moc")
        for path, doc in ((m, matrix), (o, other), (c, channel)):
            Path(path).write_text(json.dumps(doc))
        for argv in (
            ["validate", m],
            ["validate", c],
            ["entropy", m],
            ["entropy", m, "--p", "2"],
            ["relent", m, o],
            ["spectrum", m],
            ["evolve", c, m, "--steps", "2"],
            ["jamiolkowski", c],
            ["choi", c],
        ):
            assert _exit_code(argv) in DOCUMENTED_EXITS, argv
