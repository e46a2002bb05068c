"""How far the reproduction sits from the paper's Table 3.1.

The paper's values and the per-arrangement measurement live in the
repository's ``benchmarks/conftest.py``; this module loads that file
and reports the largest deviation over the table's 15 cells.  It runs
outside the timed phase and outside set-up.
"""

from __future__ import annotations

import importlib.util
import os


def table_3_1_error_pct(root: str) -> float:
    """Max |measured - paper| / paper over Table 3.1, in percent."""
    path = os.path.join(root, "benchmarks", "conftest.py")
    spec = importlib.util.spec_from_file_location("perfbench_paper_conftest", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    worst = 0.0
    for arrangement, paper in conftest.PAPER_TABLE_3_1.items():
        measured = conftest.measure_table_3_1_row(arrangement)
        for want, got in zip(paper, measured):
            worst = max(worst, abs(got - want) / want * 100.0)
    return worst
