"""Experiment drivers: one module per paper artefact.

:data:`repro.experiments.report.EXPERIMENTS` is the index: each row names
a driver module and its runner, whose docstring (and the module's) says
what it measures and the shape its ``check_shape`` expects.  Runners return
rows, consumed both by ``repro run`` / ``repro report`` and by the runnable
examples under ``examples/``.
"""

from repro.experiments.scenario import Scenario, ScenarioConfig, build_scenario
from repro.experiments.workload import WorkloadConfig, run_workload

__all__ = ["Scenario", "ScenarioConfig", "WorkloadConfig", "build_scenario",
           "run_workload"]
