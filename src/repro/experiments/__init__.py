"""Experiment harness reproducing every table and figure of the paper's evaluation.

Streaming and churn traces of the online engine are scenarios, not
experiments: build a :class:`~repro.scenarios.ScenarioSpec` with
``generator="streaming"`` or ``"churn"`` and replay it with
:func:`repro.scenarios.replay`.
"""

from .figures import (
    FigureResult,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
)
from .harness import (
    ComparisonRun,
    MethodRun,
    compare_methods,
    default_method_overrides,
    run_method_on_injection,
)
from .reporting import format_matrix, format_series, format_table
from .settings import PROFILES, ScaleProfile, get_profile
from .tables import (
    TABLE5_DATASETS,
    TABLE6_ATTRIBUTES,
    Table5Result,
    Table6Result,
    Table7Result,
    table5,
    table6,
    table7,
)

__all__ = [
    "MethodRun",
    "ComparisonRun",
    "run_method_on_injection",
    "compare_methods",
    "default_method_overrides",
    "ScaleProfile",
    "get_profile",
    "PROFILES",
    "table5",
    "table6",
    "table7",
    "Table5Result",
    "Table6Result",
    "Table7Result",
    "TABLE5_DATASETS",
    "TABLE6_ATTRIBUTES",
    "FigureResult",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "format_table",
    "format_matrix",
    "format_series",
]
