"""Table 6 + Fig. 5 — DCN vs RC runtime as the adversarial fraction varies.

Paper shape: DCN's time grows linearly with the adversarial percentage
(only flagged inputs pay the corrector's m=50 votes) while RC's time is
flat and far larger (every input pays an m=1000 vote).  At 0% adversarial
traffic the gap is largest — the paper's headline efficiency claim.  Both
votes exit early once a row's majority is decided, so the measured
forwards sit below the paper's model; the table prints both.
"""

import numpy as np

from conftest import report
from repro.eval import format_table6, table6_runtime_vs_fraction


def test_table6_fig5_runtime_vs_fraction(benchmark, mnist_ctx):
    rows = benchmark.pedantic(
        table6_runtime_vs_fraction, args=(mnist_ctx,), rounds=1, iterations=1
    )
    report("Table 6 / Fig. 5 (MNIST substitute)", format_table6(rows, mnist_ctx.dataset.name))

    dcn_times = np.array([row["dcn_seconds"] for row in rows])
    rc_times = np.array([row["rc_seconds"] for row in rows])
    fractions = np.array([row["fraction"] for row in rows])

    # RC is flat: its coefficient of variation stays small.
    assert rc_times.std() / rc_times.mean() < 0.35
    # DCN grows with the adversarial fraction...
    corr = np.corrcoef(fractions, dcn_times)[0, 1]
    assert corr > 0.8
    # ...and is dramatically cheaper than RC on clean traffic.
    assert dcn_times[0] * 10 < rc_times[0]
    # Even fully adversarial traffic stays cheaper than RC (m=50 vs m=1000).
    assert dcn_times[-1] < rc_times[-1]

    # Both defenses keep reasonable accuracy on the mixes.
    for row in rows:
        assert row["dcn_accuracy"] > 0.6, row
