"""FAB baseline deployments ([18])."""

from __future__ import annotations

from repro.hw.cluster import fab_cluster

__all__ = ["FAB_S", "FAB_M", "FAB_L"]

#: Single-card FAB (paper Table II "FAB-S").
FAB_S = fab_cluster(1, name="FAB-S")

#: FAB's published 8-card architecture (paper Table II "FAB-M").
FAB_M = fab_cluster(8, name="FAB-M")

#: 64-card extrapolation of FAB's architecture (paper Fig. 8 "FAB-L").
FAB_L = fab_cluster(64, name="FAB-L")
