"""The one shape of the live-vs-sim extension figures.

The paper's methodology (Sec. IV-C, Fig. 5/6) lays a live measurement
and a simulated one side by side and judges a claim on the pair. Every
``fig_*`` module does that the same way:

- it declares its **arms** — named :class:`~repro.core.config.RunConfig`
  field deltas over shared base fields, themselves over the config
  defaults (the integrated configuration, one worker thread per
  replica) — and the **modes** it runs them in (``"live"``: the
  wall-clock harness, ``"sim"``: the simulator);
- :func:`run_figure` runs every arm in every mode, in one fixed order
  (mode-major, arms in declaration order), and turns each result into
  one table row through the figure's ``measure(result) -> dict``;
- the figure's ``claims(rows)`` returns ``(ok, sentence)`` pairs. A
  claim is judged on the simulator's rows, which are deterministic for
  a seed; ``ok`` is then a bool. A line about live rows, which carry
  scheduler noise, is reported with ``ok=None`` and never judged;
- :meth:`Report.render` prints the table (a ``mode`` column first, then
  the figure's ``(header, format)`` columns), then one line per claim,
  a failed one prefixed ``WARNING:``. :attr:`Report.ok` is False when a
  judged claim failed, and ``tailbench`` then exits 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from .reporting import ascii_table

__all__ = [
    "MODES",
    "Arm",
    "Claim",
    "Column",
    "Report",
    "run_figure",
    "claim",
    "ms",
    "fault_timeline",
]

#: Every mode a figure can run, in the order rows are run and printed.
MODES: Tuple[str, ...] = ("live", "sim")

#: ``(ok, sentence)``: ``ok`` True/False when judged, None when reported.
Claim = Tuple[Optional[bool], str]

#: ``(header, format)``: a ``str.format`` template over the row's
#: fields (``"{p99:.2f}"``) or a callable ``format(row) -> str``.
Column = Tuple[str, Union[str, Callable[[Any], str]]]


@dataclass(frozen=True)
class Arm:
    """One configuration of a figure: a name and its field deltas."""

    name: str
    fields: Mapping[str, Any] = field(default_factory=dict)
    #: The modes this arm runs in; the figure's ``modes`` narrows them.
    modes: Tuple[str, ...] = MODES


@dataclass(frozen=True)
class Report:
    """A figure's rows and claims, ready to print."""

    title: str
    #: The columns after ``mode``.
    columns: Tuple[Column, ...]
    #: ``mode -> arm name -> row`` for every mode in :data:`MODES`; a
    #: row is the figure's measured values plus its ``mode`` and
    #: ``arm``, read as attributes.
    rows: Dict[str, Dict[str, SimpleNamespace]]
    claims: Tuple[Claim, ...]

    @property
    def ok(self) -> bool:
        """Did every judged claim hold?"""
        return all(ok is not False for ok, _ in self.claims)

    def render(self) -> str:
        table = ascii_table(
            ["mode"] + [header for header, _ in self.columns],
            [
                [mode] + [
                    fmt.format_map(vars(row)) if isinstance(fmt, str) else fmt(row)
                    for _, fmt in self.columns
                ]
                for mode, arms in self.rows.items()
                for row in arms.values()
            ],
            title=self.title,
        )
        return "\n".join([table] + [
            f"WARNING: {sentence}" if ok is False else sentence
            for ok, sentence in self.claims
        ])


def run_figure(
    *,
    title: str,
    columns: Sequence[Column],
    run: Callable[..., Any],
    arms: Sequence[Arm],
    measure: Callable[[Any], Dict[str, Any]],
    claims: Callable[[Dict[str, Dict[str, SimpleNamespace]]], Sequence[Claim]],
    base: Optional[Mapping[str, Any]] = None,
    modes: Sequence[str] = MODES,
) -> Report:
    """Run ``arms`` x ``modes`` through ``run(mode, **fields)`` and judge.

    Each (mode, arm) runs once with ``base`` updated by the arm's
    fields; ``measure`` turns its result into one row.
    """
    rows: Dict[str, Dict[str, SimpleNamespace]] = {mode: {} for mode in MODES}
    for mode in MODES:
        for arm in arms:
            if mode in modes and mode in arm.modes:
                # One expression: no run's result, every record of it,
                # is still held while the next run is measured.
                rows[mode][arm.name] = SimpleNamespace(
                    mode=mode,
                    arm=arm.name,
                    **measure(run(mode, **{**(base or {}), **arm.fields})),
                )
    return Report(title, tuple(columns), rows, tuple(claims(rows)))


def claim(ok: bool, held: str, failed: str, judged: bool = True) -> Claim:
    """The sentence for ``ok``; ``judged=False`` only reports it."""
    return (ok if judged else None), (held if ok else failed)


def ms(key: str, digits: int = 2) -> Callable[[Any], str]:
    """Column format: the row's ``key`` seconds, printed in ms."""
    return lambda row: f"{getattr(row, key) * 1e3:.{digits}f}ms"


def fault_timeline(
    time_scale: float,
    warm: float,
    fault: float,
    post: float,
    qps: float,
    scenario: Callable[..., Any],
) -> Tuple[float, float, float, Dict[str, Any]]:
    """Lay a warm -> fault -> post timeline on a constant-rate run.

    Each phase length is scaled by ``time_scale``, so a smaller scale
    shrinks wall-clock without touching service times. Returns the
    fault's ``(start, end)``, the run's ``horizon`` and the fields that
    offer ``qps`` until the horizon and play ``scenario(start=,
    duration=)`` over the fault window.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    start = warm * time_scale
    duration = fault * time_scale
    end = start + duration
    horizon = end + post * time_scale
    return start, end, horizon, dict(
        load_profile=((horizon, qps),),
        scenario=scenario(start=start, duration=duration),
    )
