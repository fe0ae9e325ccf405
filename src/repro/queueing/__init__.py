"""Queueing models: M/G/1 (Pollaczek–Khinchine), M/G/k, and the exact
FCFS recursion under both the M/G/k percentiles and the simulator's
oracle test."""

from .mg1 import mean_queue_length, mean_sojourn, mean_wait, utilization
from .mgk import (
    erlang_c,
    mgk_mean_sojourn,
    mgk_mean_wait,
    mgk_percentiles,
    mmk_mean_wait,
)
from .mmk import mm1_sojourn_percentile, mmk_wait_ccdf, mmk_wait_percentile
from .recursion import fcfs_sojourns

__all__ = [
    "mean_queue_length",
    "mean_sojourn",
    "mean_wait",
    "utilization",
    "erlang_c",
    "mgk_mean_sojourn",
    "mgk_mean_wait",
    "mgk_percentiles",
    "mmk_mean_wait",
    "mm1_sojourn_percentile",
    "mmk_wait_ccdf",
    "mmk_wait_percentile",
    "fcfs_sojourns",
]
