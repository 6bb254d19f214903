"""Solver state of one cluster that lasts one scheduling round.

``optimize_round`` solves each round's drift-plus-penalty problem by
block-coordinate descent, and between its sweeps only the scratch queues and
the head powers change. A ``ClusterRound`` keeps what the segment and
resource solvers derive from (config, round environment, cluster) alone, so
that the sweeps after the first read it instead of deriving it again. It
holds nothing that depends on queues, powers or cutoffs; each entry is keyed
by the arguments it depends on besides those three. Among them is the table
of the round's one-stage plans, which answers every segment solve under a
balance cap of one stage. A solver called without one builds a fresh one,
and ``optimize_round`` drops its states when it returns.
"""

from __future__ import annotations

from functools import cached_property

from .config import RoundEnvironment, SystemConfig
from .errors import InfeasibleError


class ClusterRound:
    """Round-constant solver inputs of cluster n, each computed on first use."""

    def __init__(self, cfg: SystemConfig, env: RoundEnvironment, n: int):
        self.cfg = cfg
        self.env = env
        self.n = n
        self._memo: dict = {}

    @cached_property
    def mem_caps(self) -> list[int]:
        """Blocks each device's memory can hold, at most L."""
        l_blocks = self.cfg.model.n_blocks
        return [min(dev.block_cap, l_blocks) for dev in self.cfg.clusters[self.n].devices]

    def memo(self, key, fn, *args):
        """``fn(*args)``, computed on the first call with this key.

        Later calls return the same value, or, when the first call raised an
        ``InfeasibleError``, raise a new one with its constraint and message.
        """
        entry = self._memo.get(key)
        if entry is None:
            try:
                entry = fn(*args), None
            except InfeasibleError as exc:
                entry = None, (exc.constraint, exc.detail)
            self._memo[key] = entry
        value, error = entry
        if error is not None:
            raise InfeasibleError(*error)
        return value


def cluster_rounds(cfg: SystemConfig, env: RoundEnvironment) -> tuple[ClusterRound, ...]:
    """A fresh ``ClusterRound`` for every cluster of the round."""
    return tuple(ClusterRound(cfg, env, n) for n in range(cfg.n_clusters))
