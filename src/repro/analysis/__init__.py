"""Experiment regeneration: the paper's tables and figures."""

from repro.analysis.export import export_all, export_json, save_json
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
from repro.analysis.runner import NativeRun, SuiteRunner
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
    "SuiteRunner",
    "NativeRun",
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
    "export_all",
    "export_json",
    "save_json",
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
