"""What ``validate_decision`` rejects, and where the energy budgets end.

Each case edits a copy of table2 or of the ``loss`` policy's round-one
decision and names the constraint the validator must raise. An energy over
its budget by a relative 1e-10 exceeds the one budget slack the solvers use
(``pipeline.ENERGY_BUDGET_SLACK``), so the validator rejects it; an energy
exactly at its budget passes.
"""

import dataclasses
import json

import pytest

from edgesched.comm import ChannelAssignment
from edgesched.config import build_config, sample_round_environment
from edgesched.decision import validate_decision
from edgesched.errors import InfeasibleError
from edgesched.orchestrator import baseline_decision
from edgesched.pipeline import ENERGY_BUDGET_SLACK, device_energy

from conftest import TABLE2

OVER = 1 + 1e-10  # above the budget slack, far below any other tolerance


def _loss_round():
    """table2's document, config and round-one environment, and the ``loss`` decision there."""
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = build_config(doc)
    env = sample_round_environment(cfg, 1)
    decision = baseline_decision("loss", cfg, env, (0.0,) * cfg.n_clusters, 1, None)
    return doc, cfg, env, decision


def _upload_budget(doc, decision, cfg, env, e_com, factor):
    # the first transmitting cluster's head gets a budget of its upload energy / factor
    n = next(n for n in range(cfg.n_clusters) if decision.assignment.is_transmitting(n))
    doc["clusters"][n]["E_n_max_j"] = e_com[n] / factor
    return decision


def _device_budget(doc, decision, cfg, env, e_com, factor):
    # one scheduled device of the last cluster gets a budget of its energy / factor
    n = cfg.n_clusters - 1
    plan = decision.plans[n]
    k = plan.scheduled[-1]
    doc["clusters"][n]["devices"][k]["E_k_max_j"] = device_energy(plan.delta[k], plan.m, cfg, env, n, k) / factor
    return decision


def _without_last_plan(doc, decision, *_):
    return dataclasses.replace(decision, plans=decision.plans[:-1])


def _one_channel_too_many(doc, decision, *_):
    assignment = ChannelAssignment(n_channels=decision.assignment.n_channels + 1, assigned=decision.assignment.assigned)
    return dataclasses.replace(decision, assignment=assignment)


@pytest.mark.parametrize(
    "edit, factor, constraint",
    [
        (_upload_budget, OVER, "C8"),
        (_device_budget, OVER, "C9"),
        (_without_last_plan, None, "C1"),
        (_one_channel_too_many, None, "C3"),
        (_upload_budget, 1.0, None),
        (_device_budget, 1.0, None),
    ],
    ids=[
        "upload-over-budget",
        "device-over-budget",
        "missing-plan",
        "wrong-channel-count",
        "upload-at-budget",
        "device-at-budget",
    ],
)
def test_validator_names_the_violated_constraint(edit, factor, constraint):
    doc, cfg, env, decision = _loss_round()
    costs = validate_decision(decision, cfg, env)
    e_com = costs[2]  # upload energies
    assert all(e > 0 for e in e_com) and ENERGY_BUDGET_SLACK < OVER - 1
    edited = edit(doc, decision, cfg, env, e_com, factor)
    # the budgets take no part in sampling, so the round's environment stays valid
    cfg_edited = build_config(doc)
    if constraint is None:
        assert validate_decision(edited, cfg_edited, env) == costs
        return
    with pytest.raises(InfeasibleError) as err:
        validate_decision(edited, cfg_edited, env)
    assert err.value.constraint == constraint


def test_an_all_zero_plan_fails_c2_through_the_closed_form():
    # build_config keeps L >= 1, so the plan check has no segment-count rule of
    # its own; under a hand-built L = 0 model the loss policy's plans are all
    # zeros, and the validator still names C2, from the empty pipeline
    _, cfg, env, _ = _loss_round()
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, n_blocks=0))
    decision = baseline_decision("loss", cfg, env, (0.0,) * cfg.n_clusters, 1, None)
    assert all(plan.n_segments == 0 for plan in decision.plans)
    with pytest.raises(InfeasibleError) as err:
        validate_decision(decision, cfg, env)
    assert err.value.constraint == "C2"
