"""The experiment table, and the full reproduction report built from it.

:data:`EXPERIMENTS` is the one list of what can be regenerated: ``repro
list`` prints it, ``repro run`` runs one row of it, and
:func:`generate_report` (``python -m repro report [-o FILE]``) runs every
row into a single markdown artefact.  Each experiment's ``check_shape``
verdict is part of it; the runner modules' docstrings say what each table
measures.
"""

import importlib
import io
from dataclasses import dataclass

from repro.metrics import format_table


@dataclass(frozen=True)
class Experiment:
    """One regenerable paper artefact."""

    id: str
    #: Module under ``repro.experiments`` and the runner function in it.
    module: str
    runner: str
    description: str
    #: ``repro run`` arguments -> runner keywords besides the seed, which
    #: every runner takes (None: the runner takes nothing else).
    cli_kwargs: object = None


def _sized(site_cap=None):
    """Runner keywords from the ``--num-sites``/``--flows`` flags given; a
    flag left out keeps the runner's own size."""
    def kwargs(args):
        sizes = {"num_sites": args.num_sites, "num_flows": args.flows}
        if site_cap is not None and args.num_sites is not None:
            sizes["num_sites"] = min(args.num_sites, site_cap)
        return {key: value for key, value in sizes.items() if value is not None}
    return kwargs


EXPERIMENTS = {experiment.id: experiment for experiment in (
    Experiment("fig1", "fig1", "run_fig1_walkthrough",
               "Fig. 1 step walkthrough"),
    Experiment("e1", "e1_packet_loss", "run_e1",
               "claim C1 — first-packet fate during mapping resolution",
               _sized()),
    Experiment("e2", "e2_overlap", "run_e2",
               "claim C2 — (T_DNS + T_map) ≈ T_DNS", _sized(site_cap=6)),
    Experiment("e3", "e3_setup_latency", "run_e3",
               "§1 formulas — TCP connection-setup latency",
               _sized(site_cap=6)),
    Experiment("e4", "e4_te_flexibility", "run_e4",
               "claim C3 — independent ingress/egress TE",
               _sized(site_cap=6)),
    Experiment("e5", "e5_overhead", "run_e5",
               "control-plane overhead and state vs scale"),
    Experiment("e6", "e6_pce_overhead", "run_e6",
               "Step 6 — PCE interception overhead / line-rate claim",
               _sized()),
    Experiment("e7", "e7_cache_aging", "run_e7", "§1 — map-cache aging",
               _sized()),
    Experiment("e8", "e8_reverse_mapping", "run_e8",
               "closing paragraph — reverse-mapping completion"),
    Experiment("e9", "e9_failover", "run_e9",
               "extension — locator failure and probing failover"),
    Experiment("e10", "e10_topology_shape", "run_e10",
               "extension — mapping systems on internet-shaped "
               "(tiered/CAIDA) fabrics", _sized()),
)}


def run_experiment(experiment, seed=None, **kwargs):
    """Run one :data:`EXPERIMENTS` row; returns ``(table text, checks)``.

    *checks* is the Fig. 1 walkthrough's ``{check name: passed}`` dict, or
    an E-experiment's list of shape-check failures (empty: the shape
    holds).  ``seed=None`` keeps the runner's own default seed.
    """
    module = importlib.import_module(f"repro.experiments.{experiment.module}")
    if seed is not None:
        kwargs["seed"] = seed
    outcome = getattr(module, experiment.runner)(**kwargs)
    if experiment.id == "fig1":
        rows = [(label, "-" if when is None else f"{when * 1000:.3f} ms", what)
                for label, when, what in outcome["steps"]]
        return (format_table(("step", "time", "what happens"), rows),
                outcome["checks"])
    # Every E-experiment's rows are dicts its module formats.
    return (format_table(module.HEADERS,
                         [module.as_tuple(row) for row in outcome]),
            module.check_shape(outcome))


def generate_report(seed=None, out=None):
    """Run every experiment; returns (markdown_text, all_shapes_ok).

    An explicit *seed* reaches every runner; without one each experiment
    keeps its own default seed, as ``repro run`` does.
    """
    buffer = io.StringIO()
    all_ok = True
    buffer.write("# Reproduction report\n\n")
    buffer.write("Regenerated by `python -m repro report`.  One section per "
                 "paper artefact; `python -m repro list` indexes them and "
                 "each experiment module's docstring states its claim.\n")
    for experiment in EXPERIMENTS.values():
        if experiment.id == "fig1":
            table, checks = run_experiment(experiment, seed)
            buffer.write(f"\n## F1 — {experiment.description}\n\n```\n{table}"
                         "\n```\n\nChecks: ")
            buffer.write(", ".join(f"{name}={'ok' if ok else 'FAILED'}"
                                   for name, ok in checks.items()) + "\n")
            all_ok = all_ok and all(checks.values())
            continue
        table, failures = run_experiment(experiment, seed)
        buffer.write(f"\n## {experiment.id.upper()} — {experiment.description}"
                     f"\n\n```\n{table}\n```\n\n")
        if failures:
            all_ok = False
            buffer.write("Shape-check FAILURES:\n")
            for failure in failures:
                buffer.write(f"- {failure}\n")
        else:
            buffer.write("Shape check: ok.\n")

    text = buffer.getvalue()
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text, all_ok
