"""Experiment drivers: one module per paper table/figure.

Each ``figN.py`` has a ``run_figN(...)`` returning structured data and
a ``render_figN(data)`` producing the ASCII report; ``cli.main`` wires
them to the ``tailbench`` command. The package does not import
:mod:`.cli` itself, so ``python -m repro.experiments.cli`` runs the
module once, without runpy's found-in-``sys.modules`` warning.
"""

from .fig2 import run_fig2, run_fig2_live
from .fig3 import run_fig3, sweep_app
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig6 import run_fig6
from .fig7 import run_fig7
from .fig8 import run_fig8
from .table1 import PAPER_TABLE1, run_table1

__all__ = [
    "run_fig2",
    "run_fig2_live",
    "run_fig3",
    "sweep_app",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "PAPER_TABLE1",
    "run_table1",
]
