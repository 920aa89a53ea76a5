"""Experiment regeneration: the paper's tables and figures.

Every table, figure and sweep is a function of a
:func:`repro.api.run_campaign` result: pass the one you have as
``result=``, or pass ``run_campaign``'s pool options (``workers``,
``backend``, ``cache_dir``, ``timeout``, ``retries``, ``progress``,
``obs``) and the function runs the jobs it needs. Rows come back as
dataclasses; the ``render_*`` functions turn them into text.
"""

from repro.analysis.figures import (
    DEFAULT_FRACTIONS,
    Figure7Point,
    PolicyStudyRow,
    figure7,
    figure7_series,
    gc_policy_study,
)
from repro.analysis.report import (
    render_figure7,
    render_policy_study,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)
from repro.analysis.calibrate import (
    Calibration,
    calibrate,
    render_calibration,
)
from repro.analysis.mixes import (
    InstructionMix,
    instruction_mix,
    render_mix_table,
    workload_mix,
)
from repro.analysis.sweeps import (
    SweepPoint,
    best_variant,
    render_sweep,
    sweep_parameters,
)
from repro.analysis.tables import (
    Table2Row,
    Table3Row,
    Table4Row,
    Table5Row,
    table2,
    table3,
    table4,
    table5,
)

__all__ = [
    "SweepPoint",
    "sweep_parameters",
    "render_sweep",
    "best_variant",
    "Calibration",
    "calibrate",
    "render_calibration",
    "InstructionMix",
    "instruction_mix",
    "workload_mix",
    "render_mix_table",
    "table2",
    "table3",
    "table4",
    "table5",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "Table5Row",
    "figure7",
    "figure7_series",
    "gc_policy_study",
    "Figure7Point",
    "PolicyStudyRow",
    "DEFAULT_FRACTIONS",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_figure7",
    "render_policy_study",
]
