"""The paper's definitions, written plainly, as the tests' one set of oracles.

Nothing here imports stabrank: each function restates a definition from
the paper, or from ``docs/derivations.md``, one list or one term at a time,
so a fault in the program's rank map, normalizer, reduction or file writer
does not reach its own oracle. A run set is read only through its ``kind``,
``k``, ``t``, ``runs`` and ``matrix`` attributes; the file text is written
from a kind, a k and a matrix, which need not make a valid run set.
"""

import math
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np


def oracle_weight(rank: int, n: int) -> float:
    """(1/2n) * (1 + sum_{m=rank}^{n} 1/m), summed term by term."""
    return math.fsum([1.0] + [1.0 / m for m in range(rank, n + 1)]) / (2 * n)


def oracle_row(kind: str, row, k: int) -> list[float]:
    """One list's probabilities from ``oracle_weight`` (rankings) or 1/k (masks)."""
    if kind == "topk":
        return [v / k for v in row]
    weights = [0.0] + [oracle_weight(r, k) for r in range(1, k + 1)]
    return [weights[r] for r in row]


def oracle_normalizer(n: int, t: int) -> float:
    """d_star of rankings with n ranked features of t: sum_r w_r ln(w_r t)."""
    return math.fsum(
        oracle_weight(r, n) * math.log(oracle_weight(r, n) * t) for r in range(1, n + 1)
    )


def fsum_js_multi(m: np.ndarray) -> float:
    """d_js of the rows of a float matrix by its definition: one ``math.fsum``
    over every ``p ln(p / mean)`` of the K x t matrix, over K."""
    mean = m.mean(axis=0)
    mask = m > 0
    ratio = np.ones_like(m)
    np.divide(m, mean, out=ratio, where=mask)
    return math.fsum(np.where(mask, m * np.log(ratio), 0.0).ravel()) / m.shape[0]


def per_cell_text(kind: str, k: int, matrix) -> str:
    """The run-set file of the K x t ``matrix``: its header, then one line per
    feature with that feature's cell of each run, formatted with ``str``."""
    matrix = np.asarray(matrix)
    runs, t = matrix.shape
    lines = [f"#stabrank v1 kind={kind} t={t} k={k} K={runs}"]
    lines += [",".join(map(str, column)) for column in matrix.T.tolist()]
    return "\n".join(lines) + "\n"


def oracle_spearman(a, b) -> float:
    """1 - 6 sum d^2 / (t (t^2 - 1)), with the squared differences summed literally."""
    t = len(a)
    return 1 - 6 * sum((x - y) ** 2 for x, y in zip(a, b)) / (t * (t**2 - 1))


def _selected(mask) -> set[int]:
    return {feature for feature, flag in enumerate(mask) if flag}


def oracle_kuncheva(a, b) -> float:
    """(o t - k^2) / (k (t - k)) for two masks that each select k of t
    features, o of them in common, from the selected sets."""
    first, second = _selected(a), _selected(b)
    t, k = len(a), len(first)
    return (len(first & second) * t - k * k) / (k * (t - k))


def oracle_jaccard(a, b) -> float:
    """|A & B| / |A | B| of the two masks' selected sets."""
    first, second = _selected(a), _selected(b)
    return len(first & second) / len(first | second)


def _entropy(probabilities) -> float:
    return -math.fsum(p * math.log(p) for p in probabilities if p > 0)


def oracle_s_js(run_set) -> float:
    """s_js by the entropy identity (ln t - H(mean)) / (ln t - H(row)), with
    every list mapped by ``oracle_row``: a route that never forms the
    divergence sum and never calls the program's rank map."""
    rows = [oracle_row(run_set.kind, row, run_set.k) for row in run_set.matrix.tolist()]
    mean = [math.fsum(column) / len(rows) for column in zip(*rows)]
    log_t = math.log(run_set.t)
    return (log_t - _entropy(mean)) / (log_t - _entropy(rows[0]))


def decimal_d_js(run_set) -> Decimal:
    """d_js of masks by the entropy identity H(mean) - ln k in 50 digits
    (so within about 1e-49 of the exact value, which may be 0). The mean
    puts c / (K k) on a feature that c runs select; each distinct count's
    logarithm is taken once."""
    with localcontext() as context:
        context.prec = 50
        total = Decimal(run_set.runs * run_set.k)
        counts = Counter(run_set.matrix.sum(axis=0, dtype=np.int64).tolist())
        h_mean = -sum(
            n * (c / total) * (c / total).ln() for c, n in counts.items() if c
        )
        return h_mean - Decimal(run_set.k).ln()
