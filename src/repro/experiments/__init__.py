"""Experiment drivers: one module per paper artefact (see DESIGN.md §4).

Each driver exposes a ``run(...)`` function returning plain dict/list
results, consumed both by ``repro run`` / ``repro report`` and by the
runnable examples under ``examples/``.
"""

from repro.experiments.scenario import Scenario, ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload

__all__ = ["Scenario", "ScenarioConfig", "WorkloadConfig", "build_scenario",
           "run_workload"]
