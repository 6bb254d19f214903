"""Solver state of one cluster that lasts one scheduling round.

``optimize_round`` solves each round's drift-plus-penalty problem by
block-coordinate descent, and between its sweeps only the scratch queues and
the head powers change. A ``ClusterRound`` keeps what a later sweep asks for
again and depends on (config, round environment, cluster) alone: the C11 power
thresholds (the segment cap at any power, the power floor at any segment
count), the table of the round's one-stage plans per V (it answers every
segment solve under a balance cap of one stage), the check and the pipeline
latency of each chosen plan, and the power sub-problem and energy ceiling.
Each memo entry is keyed by the arguments it depends on besides those three.
The partition search only reads the thresholds. A solver called without a
state builds a fresh one, and ``optimize_round`` drops its states when it
returns.
"""

from __future__ import annotations

from functools import cached_property

from .config import RoundEnvironment, SystemConfig
from .convergence import balance_power_thresholds


class ClusterRound:
    """Round-constant solver inputs of cluster n, each computed on first use."""

    def __init__(self, cfg: SystemConfig, env: RoundEnvironment, n: int):
        self.cfg = cfg
        self.env = env
        self.n = n
        self._memo: dict = {}

    def memo(self, key, fn, *args):
        """``fn(*args)``, computed on the first call with this key; ``fn``
        never returns None. An error is not kept: it ends the round's solve,
        and a later call with the key raises it again."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = fn(*args)
        return value

    @cached_property
    def balance_thresholds(self) -> list[float]:
        """The cluster's ``balance_power_thresholds``; not a memo entry, as every solver call reads it."""
        cfg, env, n = self.cfg, self.env, self.n
        return balance_power_thresholds(
            cfg.convergence, cfg.n_clusters, cfg.model.n_blocks, env.uplink_gain[n], env.uplink_interference_w[n]
        )


def cluster_rounds(cfg: SystemConfig, env: RoundEnvironment) -> tuple[ClusterRound, ...]:
    """A fresh ``ClusterRound`` for every cluster of the round."""
    return tuple(ClusterRound(cfg, env, n) for n in range(cfg.n_clusters))
