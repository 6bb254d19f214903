"""Solver state of one cluster that lasts one scheduling round.

``optimize_round`` solves each round's drift-plus-penalty problem by
block-coordinate descent, and between its sweeps only the scratch queues and
the head powers change. A ``ClusterRound`` keeps what a later sweep asks for
again and depends on (config, round environment, cluster) alone: the balance
cap per head power, the table of the round's one-stage plans per V (it
answers every segment solve under a balance cap of one stage), the check and
the pipeline latency of each chosen plan, and the power box (sub-problem
constants, energy ceiling, balance floor per segment count). Each entry is
keyed by the arguments it depends on besides those three. The partition
search keeps nothing here. A solver called without a state builds a fresh
one, and ``optimize_round`` drops its states when it returns.
"""

from __future__ import annotations

from .config import RoundEnvironment, SystemConfig


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


def cluster_rounds(cfg: SystemConfig, env: RoundEnvironment) -> tuple[ClusterRound, ...]:
    """A fresh ``ClusterRound`` for every cluster of the round."""
    return tuple(ClusterRound(cfg, env, n) for n in range(cfg.n_clusters))
