"""Sweep grids: the axes a sweep varies and the cells they expand to.

Every paper experiment but the Fig. 1 walkthrough and E9 (a hand-paced
stream) runs as one grid and reads its aggregates; what it compares
(systems, sizes, depths) are named bundles on the ``variant`` axis.  A
:class:`SweepGrid` lists the values of every sweep axis, and
:func:`expand_grid` turns it into concrete :class:`SweepCell` objects —
one :class:`~repro.experiments.scenario.ScenarioConfig` /
:class:`~repro.experiments.workload.WorkloadConfig` pair per cell: axis
values, then overrides, then the variant's bundle.

Which axes exist is defined once, in the :data:`AXES` table; everything
else that names one is derived from it (see "Sweep artifacts" in
``docs/contracts.md``).  Cells run with tracing disabled
(``ScenarioConfig.tracing=False``): metrics come from counters, flow
records and component state, never a trace, and skipping per-packet
trace allocation is what makes the >=100-site cells cheap.
"""

import itertools
from dataclasses import dataclass, field, fields

from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig
from repro.experiments.workload import WorkloadConfig
from repro.net.topogen import FAMILIES
from repro.traffic.popularity import PACING_MODES, SIZE_DISTRIBUTIONS


@dataclass(frozen=True)
class SweepGrid:
    """The values of every sweep axis plus shared scenario/workload knobs.

    One tuple field per :data:`AXES` row; their cross product defines the
    cells, nested in table order with the seed innermost.  Non-flat
    topology families derive their own provider population from the site
    count, so ``num_providers`` only shapes ``flat``/``fig1`` cells.
    Failed sites lose their primary access link at ``fail_at`` and regain
    it at ``repair_at`` (simulated seconds after the workload starts).
    ``scenario_overrides`` and ``workload_overrides`` apply to every cell
    (any :class:`ScenarioConfig` / :class:`WorkloadConfig` field) and win
    over axis values; ``variants``, ``(name, {ScenarioConfig or
    WorkloadConfig field: value})`` bundles, is an axis whose bundle wins
    over both.  The paper experiments E1-E8 and E10 are one grid each.
    """

    name: str = "sweep"
    control_planes: tuple = ("pce", "alt")
    topologies: tuple = ("flat",)
    site_counts: tuple = (4,)
    seeds: tuple = (1,)
    zipf_values: tuple = (1.0,)
    size_dists: tuple = ("constant",)
    pacings: tuple = ("constant",)
    fail_fractions: tuple = (0.0,)
    variants: tuple = (("default", {}),)
    fail_at: float = 1.0
    repair_at: float = 3.0
    num_providers: int = 4
    hosts_per_site: int = 2
    num_flows: int = 40
    arrival_rate: float = 20.0
    mode: str = "udp"
    packets_per_flow: int = 3
    mapping_ttl: float = 60.0
    scenario_overrides: dict = field(default_factory=dict)
    workload_overrides: dict = field(default_factory=dict)

    def describe(self):
        """JSON-ready description of the grid (stable field order)."""
        return {spec.name: _listed(getattr(self, spec.name))
                for spec in fields(self)}


def _listed(value):
    """*value* with its tuples as lists, as JSON gives it back."""
    if isinstance(value, tuple):
        return [_listed(item) for item in value]
    return value


@dataclass(frozen=True)
class FailureConfig:
    """RLOC failure injected into a cell (reuses the E9 machinery)."""

    fraction: float
    fail_at: float = 1.0
    repair_at: float = 3.0


@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: everything a worker needs to run it."""

    index: int
    cell_id: str
    variant: str           # the name of the bundle its scenario applied
    scenario: ScenarioConfig
    workload: WorkloadConfig
    failure: FailureConfig


@dataclass(frozen=True)
class Axis:
    """One sweep axis: all that the grid, cells, artifacts and CLI know of it."""

    key: str               # in cell results, CSV columns, aggregate groups
    field: str             # SweepGrid field listing the values
    flag: str              # ``repro sweep`` flag (or None) for that field ...
    type: type             # ... and its element type
    config: str            # SweepCell config the value lands in (or None) ...
    #: ... as this keyword (default: key), the config attribute results
    #: report back: read from the config, because overrides may shadow the
    #: axis value.
    kwarg: str = None
    fragment: str = "{}"   # cell-id fragment ...
    unmarked: object = None    # ... left out of the id at this value
    valid: object = None   # validity predicate ...
    error: str = None      # ... and the ValueError text where it fails
    label: str = None      # column header in the printed aggregate table
    show: str = None       # its cell format (default: the table's own)
    help: str = None

    def __post_init__(self):
        object.__setattr__(self, "kwarg", self.kwarg or self.key)


#: The replication axis: aggregates fold over it instead of grouping by
#: it, and it varies fastest in the grid.
SEED = Axis("seed", "seeds", "--seeds", int, "scenario", fragment="seed{}")

#: The variant axis: its values name the grid's bundles, and a cell keeps
#: its own (:attr:`SweepCell.variant`).
_VARIANT = Axis("variant", "variants", None, str, None, unmarked="default",
                label="variant")

#: Every sweep axis, in result/CSV column order.
AXES = (
    Axis("control_plane", "control_planes", "--control-planes", str,
         "scenario", valid=CONTROL_PLANES.__contains__,
         error="unknown control plane {!r}", label="system"),
    Axis("topology", "topologies", "--topologies", str, "scenario",
         unmarked="flat",
         valid=FAMILIES.__contains__, error="unknown topology family {!r}",
         label="topo",
         help="topology families (fig1/flat/tiered/caida; "
              "see repro.net.topogen)"),
    Axis("num_sites", "site_counts", "--sites", int, "scenario",
         fragment="sites{}", label="sites"),
    SEED,
    Axis("zipf_s", "zipf_values", "--zipf", float, "workload",
         fragment="zipf{:g}", label="zipf"),
    # Heavy-tailed bounded Pareto / lognormal around packets_per_flow
    # (see repro.traffic.popularity.FlowSizeSampler).
    Axis("size_dist", "size_dists", "--size-dists", str, "workload",
         fragment="size{}", unmarked="constant",
         valid=SIZE_DISTRIBUTIONS.__contains__,
         error="unknown size distribution {!r}", label="sizes",
         help="flow-size distributions (constant/pareto/lognormal)"),
    # How those sizes hit the links (see repro.traffic.popularity.FlowShaper).
    Axis("pacing", "pacings", "--pacings", str, "workload",
         unmarked="constant", valid=PACING_MODES.__contains__,
         error="unknown pacing mode {!r}", label="pacing",
         help="pacing modes (constant/shaped/fluid: shaped bursts mice and "
              "paces elephants at the workload's target rate, fluid also "
              "moves bulk flows as rate chunks)"),
    # The E9 RLOC-failure machinery as an axis.
    Axis("fail_fraction", "fail_fractions", "--fail-fractions", float,
         "failure", kwarg="fraction", fragment="fail{:g}", unmarked=0.0,
         valid=lambda fraction: 0.0 <= fraction <= 1.0,
         error="fail fraction {!r} outside [0, 1]", label="fail",
         show="{:g}", help="fractions of sites whose primary RLOC fails"),
    _VARIANT,
)

#: The axes that identify one aggregate group: every axis but the seed.
GROUP_AXES = tuple(axis for axis in AXES if axis is not SEED)

#: Scalar grid fields ``repro sweep`` can override, as
#: ``(flag, SweepGrid field, argparse keywords)``.
GRID_FLAGS = (("--flows", "num_flows", {"type": int}),
              ("--mode", "mode", {"choices": ("udp", "tcp")}))


def cell_config(cell):
    """The value of every :data:`AXES` row *cell* runs with, and its mode:
    read from its configs, because overrides may shadow an axis value."""
    return {**{axis.key: getattr(cell if axis.config is None
                                 else getattr(cell, axis.config), axis.kwarg)
               for axis in AXES},
            "mode": cell.workload.mode}


#: What a variant bundle may set: each field, by the config it lands in.
_BUNDLE_FIELDS = {spec.name: config
                  for config, klass in (("scenario", ScenarioConfig),
                                        ("workload", WorkloadConfig))
                  for spec in fields(klass)}


def expand_grid(grid):
    """The grid's cells, in deterministic axis-nesting order.

    Raises ``ValueError`` naming the grid field for an axis that is empty
    or repeats a value, and for a value its axis does not accept; and the
    field a variant bundle sets when neither :class:`ScenarioConfig` nor
    :class:`WorkloadConfig` has it or an axis sweeps it (its cells would
    fold together as seeds).
    """
    axis_values = {axis: getattr(grid, axis.field) for axis in AXES}
    axis_values[_VARIANT] = tuple(name for name, _bundle in grid.variants)
    for axis, values in axis_values.items():
        if not values:
            raise ValueError(f"grid field {axis.field!r} is empty")
        if len(set(values)) != len(values):
            raise ValueError(f"grid field {axis.field!r} repeats a value: "
                             f"{values!r}")
        for value in values:
            if axis.valid is not None and not axis.valid(value):
                raise ValueError(axis.error.format(value))
    swept = {axis.kwarg: axis.field for axis, values in axis_values.items()
             if axis.config in ("scenario", "workload") and len(values) > 1}
    for name, bundle in grid.variants:
        for key in bundle:
            if key not in _BUNDLE_FIELDS:
                raise ValueError(f"variant {name!r} sets {key!r}, which "
                                 f"neither config has")
            if key in swept:
                raise ValueError(f"variant {name!r} sets {key!r}, which grid "
                                 f"field {swept[key]!r} sweeps")
    nesting = (*GROUP_AXES, SEED)
    return [_make_cell(grid, index, tuple(zip(nesting, values, strict=True)))
            for index, values in enumerate(itertools.product(
                *(axis_values[axis] for axis in nesting)))]


def _make_cell(grid, index, values):
    """The cell at *values*, ``(axis, value)`` pairs in nesting order."""
    kwargs = {
        "scenario": dict(num_providers=grid.num_providers,
                         hosts_per_site=grid.hosts_per_site,
                         mapping_ttl=grid.mapping_ttl, tracing=False),
        "workload": dict(num_flows=grid.num_flows,
                         arrival_rate=grid.arrival_rate, mode=grid.mode,
                         packets_per_flow=grid.packets_per_flow),
        "failure": dict(fail_at=grid.fail_at, repair_at=grid.repair_at),
    }
    for axis, value in values:
        if axis is _VARIANT:
            variant = value
        else:
            kwargs[axis.config][axis.kwarg] = value
    # Overrides win over axis values, and a variant's bundle over both.
    kwargs["scenario"].update(grid.scenario_overrides)
    kwargs["workload"].update(grid.workload_overrides)
    for key, value in dict(grid.variants)[variant].items():
        kwargs[_BUNDLE_FIELDS[key]][key] = value
    cell_id = "-".join(axis.fragment.format(value)
                       for axis, value in values if value != axis.unmarked)
    return SweepCell(index=index, cell_id=cell_id, variant=variant,
                     scenario=ScenarioConfig(**kwargs["scenario"]),
                     workload=WorkloadConfig(**kwargs["workload"]),
                     failure=FailureConfig(**kwargs["failure"]))
