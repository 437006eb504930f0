"""Quickstart: the three list kinds as run-set rows, and the stability score.

Walks through the three kinds on a small worked example (ten features,
five runs of a hypothetical feature ranker): builds the full rankings as
one run set, truncates them to partial rankings and top-k masks, validates
the rows and scores each run set. Run with:

    python demos/01_stability_quickstart.py
"""

import numpy as np

from stabrank import RunSet, js_stability, row_violations

# Five runs of one algorithm over ten features, one run per row:
# ranks[j, i] is the rank of feature i in run j (1 = most important).
# Small data perturbations shuffled the ranks between runs, which is
# exactly the instability we want to quantify.
ranks = np.array([
    [3, 2, 4, 9, 5, 10, 7, 8, 1, 6],
    [9, 1, 7, 6, 3, 5, 10, 2, 4, 8],
    [7, 2, 3, 10, 5, 8, 9, 6, 1, 4],
    [8, 3, 5, 9, 1, 7, 10, 6, 2, 4],
    [7, 3, 2, 8, 4, 9, 10, 5, 1, 6],
])

# row_violations names the first broken invariant of each row (None = valid);
# a RunSet runs the same check and refuses a matrix with any bad row.
print("validation:", row_violations("full", ranks, ranks.shape[1]))
print("a duplicated rank:", row_violations("full", [[1, 1, 3]], 3))

# A RunSet is the unit the metrics consume. The same outputs in the two
# truncated kinds keep the best k = 4 features of each run: a partial
# ranking zeroes the ranks above k, and a mask marks the k kept features.
k = 4
full_set = RunSet("full", ranks)
partial_set = RunSet("partial", np.where(ranks <= k, ranks, 0), k)
mask_set = full_set.to_topk(k)
print("\nrun 1 as a partial ranking:", partial_set.matrix[0].tolist())
print("run 1 as a top-k mask:     ", mask_set.matrix[0].tolist())

# The stability score is 1 for identical lists and falls towards 0 for
# random ones as the number of runs grows. Divergences are in nats.
for name, rs in [("full", full_set), ("partial", partial_set), ("topk", mask_set)]:
    report = js_stability(rs)
    print(
        f"\n{name:>7}: s_js={report.s_js:.4f} "
        f"(divergence {report.d_js:.4f} vs random baseline {report.d_star:.4f})"
    )

# A fully stable algorithm for contrast: the same ranking five times.
stable = RunSet("full", np.tile(ranks[0], (5, 1)))
print("\nidentical runs score:", js_stability(stable).s_js)
