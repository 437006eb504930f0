"""The four canned experiment curves at desk scale.

Each preset sweeps one knob from fully random to fully stable generators
and reports the stability score next to its classical baseline, showing
that the score tracks Spearman on full rankings and the Kuncheva index on
masks, while adding rank-awareness for partial lists. Uses reduced sizes
so the whole script runs in a few seconds; drop the overrides for the
full-scale versions (t=2000, k=600, 100 runs). Run with:

    python demos/03_experiment_curves.py
"""

from stabrank import run_experiment

SIZES = dict(t=300, runs=40)


def show(title, points, x_key):
    print(f"\n{title}")
    names = [n for n in points[0] if n != x_key]
    print(f"{x_key:>8} | " + " | ".join(f"{n:>14}" for n in names))
    for p in points:
        print(f"{p[x_key]:>8} | " + " | ".join(f"{p[n]:14.4f}" for n in names))


show(
    "fig4: fixed-output count vs stability of full rankings",
    run_experiment("fig4", 1, **SIZES),
    "i",
)

show(
    "fig5: the same sweep on top-60 masks",
    run_experiment("fig5", 1, k=60, **SIZES),
    "i",
)

show(
    "fig6: where the disagreement sits (0 = bottom of list, 1 = top)",
    run_experiment("fig6", 1, k=60, overlap=35, **SIZES),
    "lambda",
)

show(
    "fig7: rank randomness inside one agreed top-60 set",
    run_experiment("fig7", 1, k=60, **SIZES),
    "q",
)

print(
    "\nSame curves via the CLI, e.g.:\n"
    "  stabrank experiment fig6 --seed 1 --t 300 --k 60 --runs 40 --out fig6.csv"
)
