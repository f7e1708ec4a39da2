"""The four benchmark workloads: a shipped preset plus overrides each.

Every workload is scaled so that one experiment takes a few seconds on a
2-core machine; README.md gives the reason for each choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict = field(default_factory=dict)
    cli: tuple | None = None  # channelms subcommand run through cli.main
    out_dir: bool = False  # write artifacts into a temporary out_dir


WORKLOADS = {w.name: w for w in (
    Workload("sweep_rbc", "test1_rbc",
             dict(target_cells=3000, mu_list=(5, 10, 15, 20), threads=1)),
    Workload("transient_tv", "test1_rbc",
             dict(target_cells=4000, variant="timevelocity", mu_list=(20,),
                  threads=1)),
    Workload("unstructured_ms", "test3_unstructured",
             dict(target_cells=8000, n_domains=20, mu_list=(10, 20),
                  mc_list=(1, 3, 5, 10), threads=2, write_fields=True),
             out_dir=True),
    Workload("coarse_dbc", "test2_dbc",
             dict(target_cells=8000, threads=1), cli=("coarse",)),
)}
