"""One array rule at the boundary: ``lists._array``.

Every public entry point that takes an array reads it through
``lists._array``. The refusal table crosses those entry points with eight
malformed inputs, each made from an input the entry point accepts: ragged
nesting, a masked array, a list whose first row is a masked array, strings,
complex numbers, an object array holding ``None``, a 0-d and a 3-d array.
Each is refused with a ``ValueError`` that names its field (``matrix``,
``first list``, ``second list``, ``p``, ``q``, ``probabilities``,
``distances`` or ``coords``) or, where an object array reaches the integer
check, the entry and its run or list; none is numpy's own message. The
messages are matched by pattern, since a printed dtype (``<U3``) or shape
varies with the input; ``tests/test_refusals.py`` runs these calls in its
check that every refusal in ``src/`` is reached.
"""

import re

import numpy as np
import pytest

from stabrank import (
    DistanceMatrix,
    Embedding,
    RunSet,
    jaccard,
    js_multi,
    js_pair,
    kl,
    kuncheva,
    row_violations,
    spearman,
)
from stabrank.lists import _array

RUNS_X_FEATURES = r"^matrix must be 2-dimensional \(runs x features\)$"
FEATURES = r"must be 1-dimensional \(features\)$"

# name: (call on the array, an array it accepts, field, the wrong-ndim message)
ENTRY_POINTS = {
    "RunSet": (lambda x: RunSet("full", x), [[1, 2], [2, 1]], "matrix", RUNS_X_FEATURES),
    "row_violations": (lambda x: row_violations("full", x, 2), [[1, 2], [2, 1]], "matrix",
                       RUNS_X_FEATURES),
    "spearman": (lambda x: spearman(x, [1, 2]), [2, 1], "first list", "^first list " + FEATURES),
    "kuncheva": (lambda x: kuncheva([0, 1], x), [1, 0], "second list",
                 "^second list " + FEATURES),
    "jaccard": (lambda x: jaccard(x, [1, 0]), [1, 0], "first list", "^first list " + FEATURES),
    "kl": (lambda x: kl(x, [0.5, 0.5]), [0.25, 0.75], "p", "^p " + FEATURES),
    "js_pair": (lambda x: js_pair([0.5, 0.5], x), [0.25, 0.75], "q", "^q " + FEATURES),
    "js_multi": (js_multi, [[0.5, 0.5], [1.0, 0.0]], "probabilities",
                 r"^probabilities must be 2-dimensional \(vectors x features\)$"),
    "DistanceMatrix": (lambda x: DistanceMatrix(x, (("a", 0), ("a", 1))),
                       [[0.0, 1.0], [1.0, 0.0]], "distances", "^distance matrix must be square$"),
    "Embedding": (lambda x: Embedding(x, (1.0, 0.0), 0.0), [[0.0, 1.0], [2.0, 3.0]], "coords",
                  r"^coords must be an \(n, 2\) array, got shape \((1, 2, 2)?\)$"),
}


def ragged(valid):
    rows = valid.tolist()
    rows[-1] = rows[-1][:-1] if valid.ndim == 2 else [rows[-1]]
    return rows


def masked(valid):
    mask = np.zeros(valid.shape, dtype=bool)
    mask.flat[0] = True
    return np.ma.array(valid, mask=mask)


def masked_rows(valid):
    """A list of rows whose first is masked; a 1-D input is the one row."""
    rows = list(valid) if valid.ndim == 2 else [valid]
    return [masked(rows[0]), *rows[1:]]


def with_none(valid):
    values = valid.astype(object)
    values.flat[0] = None
    return values


# name: (the malformed input made from an accepted one, its message for a field)
INPUTS = {
    "ragged": (ragged, lambda field: f"^{field} must be one rectangular array, not ragged nesting$"),
    "masked": (masked, lambda field: f"^{field} must not be a masked array$"),
    "masked rows": (masked_rows, lambda field: f"^{field} must not be a masked array$"),
    "str": (lambda valid: valid.astype(str),
            lambda field: rf"^{field} must be real numbers, got dtype <U\d+$"),
    "complex": (lambda valid: valid.astype(complex),
                lambda field: f"^{field} must be real numbers, got dtype complex128$"),
    "object": (with_none, lambda field: f"^{field} must be real numbers, got dtype object$"),
    "0-d": (lambda valid: valid.flat[0], None),
    "3-d": (lambda valid: valid.reshape((1,) * (3 - valid.ndim) + valid.shape), None),
}

def expected(entry: str, made: str) -> str:
    _, _, field, wrong_ndim = ENTRY_POINTS[entry]
    message = INPUTS[made][1]
    if message is None:
        return wrong_ndim
    if made == "object" and field.endswith(("matrix", "list")):  # object arrays of ints pass
        return "^" + ("run 0" if field == "matrix" else field) + ": entry None is not an int64 integer$"
    return message(field)


@pytest.mark.parametrize("made", INPUTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_refusal_table(entry, made):
    call, valid, _, _ = ENTRY_POINTS[entry]
    valid = np.array(valid)
    call(valid)  # accepted as it is
    with pytest.raises(ValueError) as refused:
        call(INPUTS[made][0](valid))
    message = str(refused.value)
    assert re.search(expected(entry, made), message), message
    assert "inhomogeneous" not in message and "setting an array element" not in message


def test_no_copy_in_native_byte_order_and_one_cast_otherwise():
    native = np.arange(6.0).reshape(2, 3)
    assert _array(native, "x", "f", ("a", "b")) is native
    swapped = native.astype(native.dtype.newbyteorder())
    converted = _array(swapped, "x", "f")
    assert converted.dtype.isnative and converted.dtype == np.float64
    assert np.array_equal(converted, native)
    assert np.array_equal(_array([[1, 2], [3, 4]], "x", "i"), [[1, 2], [3, 4]])

