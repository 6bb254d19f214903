import math
from types import SimpleNamespace

import mpmath
import pytest

from edgesched.comm import NOT_TRANSMITTING, ChannelAssignment, cluster_uplink_rate, d2d_delay, uplink
from edgesched.config import build_config, sample_round_environment
from edgesched.decision import SchedulingDecision, validate_decision
from edgesched.errors import StalledLinkError
from edgesched.pipeline import SegmentPlan

from conftest import minimal_doc

N0 = 10 ** (-20.4)  # -174 dBm/Hz in W/Hz


BASE = {"bandwidth": 0.5e6, "power": 0.5, "gain": 10 ** (-0.1 / 10), "interference": 0.07}


def _rate(**overrides):
    # one cluster head with just the fields the rate reads
    link = {**BASE, **overrides}
    cluster = SimpleNamespace(uplink_bandwidth_hz=link["bandwidth"])
    env = SimpleNamespace(uplink_gain=(link["gain"],), uplink_interference_w=(link["interference"],))
    return cluster_uplink_rate(cluster, env, 0, link["power"], N0)


def test_zero_power_zero_rate():
    assert _rate(power=0.0) == 0.0


def test_rate_matches_high_precision_reference():
    # independent evaluation of the same closed form at 80-bit precision
    mpmath.mp.prec = 80
    b, p, h, i = (mpmath.mpf(BASE[k]) for k in ("bandwidth", "power", "gain", "interference"))
    expected = b * mpmath.log(1 + p * h / (i + b * mpmath.mpf(N0))) / mpmath.log(2)
    assert _rate() == pytest.approx(float(expected), rel=1e-12)


def test_rate_concavity_in_power():
    r1, r2 = _rate(), _rate(power=2 * BASE["power"])
    sinr1 = BASE["power"] * BASE["gain"] / (BASE["interference"] + BASE["bandwidth"] * N0)
    assert sinr1 > 1.0
    assert r2 > r1
    assert r2 - r1 < BASE["bandwidth"]  # less than one bit/s/Hz once SINR > 1


@pytest.mark.parametrize("factor", [1.5, 3.0, 10.0])
def test_rate_monotonicity(factor):
    base = _rate()
    assert _rate(power=BASE["power"] * factor) > base
    assert _rate(gain=BASE["gain"] * factor) > base
    assert _rate(interference=BASE["interference"] * factor) < base


def _uplink_cfg(z_enc=4e6, theta_enc=4e6):
    doc = minimal_doc()
    doc["model"] = {"z_enc_bits": z_enc, "theta_enc_bits": theta_enc}
    doc["clusters"][0].update({"B_up_hz": 0.5e6, "h_up_db": -0.1, "I_up_w": 0.07})
    return build_config(doc)


def _one_cluster_decision(cfg, channel, power):
    # the minimal system's one cluster, every block on its one device
    return SchedulingDecision(
        plans=(SegmentPlan(delta=(cfg.model.n_blocks,), m=1),),
        assignment=ChannelAssignment(n_channels=1, assigned=(channel,)),
        powers_w=(power,),
    )


def test_uplink_delay_is_unit_payload_ratio():
    # payload 1 Mb at 1 Mb/s is one second: scale the payload to the realized rate
    cfg = _uplink_cfg()
    env = sample_round_environment(cfg, 1)
    rate = cluster_uplink_rate(cfg.clusters[0], env, 0, 0.5, cfg.noise_density_w_per_hz)
    cfg2 = _uplink_cfg(z_enc=rate / 2, theta_enc=rate / 2)  # payload == rate bits
    assert uplink(cfg2, env, 0).delay(0.5) == pytest.approx(1.0, rel=1e-12)


def test_uplink_delay_8mb_payload_matches_ratio():
    cfg = _uplink_cfg(z_enc=4e6, theta_enc=4e6)
    env = sample_round_environment(cfg, 1)
    rate = cluster_uplink_rate(cfg.clusters[0], env, 0, 0.5, cfg.noise_density_w_per_hz)
    assert uplink(cfg, env, 0).delay(0.5) == pytest.approx(8e6 / rate, rel=1e-9)


def test_uplink_delay_times_rate_recovers_payload():
    cfg = _uplink_cfg()
    env = sample_round_environment(cfg, 1)
    for p in (0.05, 0.2, 0.5):
        delay = uplink(cfg, env, 0).delay(p)
        rate = cluster_uplink_rate(cfg.clusters[0], env, 0, p, cfg.noise_density_w_per_hz)
        assert delay * rate == pytest.approx(cfg.model.uplink_payload_bits, rel=1e-12)


def test_unassigned_cluster_not_transmitting():
    # off the air the validator prices no upload: no delay, no energy
    cfg = _uplink_cfg()
    env = sample_round_environment(cfg, 1)
    _, ups, e_com, _, _ = validate_decision(_one_cluster_decision(cfg, None, 0.0), cfg, env)
    assert ups == (NOT_TRANSMITTING,) and e_com == (0.0,)
    assert math.isinf(NOT_TRANSMITTING)


def test_stalled_uplink_raises():
    # on the air at zero power the rate is zero with the payload pending
    cfg = _uplink_cfg()
    env = sample_round_environment(cfg, 1)
    assert math.isinf(uplink(cfg, env, 0).delay(0.0))
    with pytest.raises(StalledLinkError, match="stalled uplink"):
        validate_decision(_one_cluster_decision(cfg, 0, 0.0), cfg, env)


def test_transmit_energy_zero_cases_and_product():
    cfg = _uplink_cfg()
    env = sample_round_environment(cfg, 1)
    link = uplink(cfg, env, 0)
    assert link.upload_energy(0.0) == 0.0
    p = 0.3
    rate = cluster_uplink_rate(cfg.clusters[0], env, 0, p, cfg.noise_density_w_per_hz)
    param_only_time = cfg.model.enc_param_bits / rate
    assert link.upload_energy(p) == pytest.approx(p * param_only_time, rel=1e-12)
    _, ups, e_com, _, _ = validate_decision(_one_cluster_decision(cfg, 0, p), cfg, env)
    assert ups == (link.delay(p),) and e_com == (link.upload_energy(p),)


def test_transmit_energy_linear_in_parameter_payload():
    env_args = dict(z_enc=4e6)
    cfg_full = _uplink_cfg(theta_enc=4e6, **env_args)
    cfg_half = _uplink_cfg(theta_enc=2e6, **env_args)
    e_full = uplink(cfg_full, env := sample_round_environment(cfg_full, 1), 0).upload_energy(0.5)
    e_half = uplink(cfg_half, env, 0).upload_energy(0.5)
    assert e_half == pytest.approx(e_full / 2, rel=1e-12)


def test_d2d_delay_reference_value(table2_cfg):
    # 1 Mb over the default device link: rate just under 8.81 Mb/s -> ~0.1136 s
    model = table2_cfg.model
    rate = 0.5e6 * math.log2(1 + 0.1 * 10 ** (-30 / 10) / (5e-10 + 0.5e6 * N0))
    assert rate == pytest.approx(8.8e6, rel=1e-2)
    tau = 1e6 / rate

    import dataclasses

    model_1mb = dataclasses.replace(model, act_seg_bits=5e5, grad_seg_bits=5e5)
    got = d2d_delay(model_1mb, 0.5e6, 0.1, 10 ** (-30 / 10), 5e-10, N0)
    assert got == pytest.approx(tau, rel=1e-12)
    assert got == pytest.approx(0.1136, rel=1e-3)


def test_d2d_linearity_and_interference_blowup(table2_cfg):
    import dataclasses

    m1 = dataclasses.replace(table2_cfg.model, act_seg_bits=4e4, grad_seg_bits=6e4)
    m2 = dataclasses.replace(table2_cfg.model, act_seg_bits=8e4, grad_seg_bits=12e4)
    args = (0.5e6, 0.1, 1e-3, 5e-10, N0)
    assert d2d_delay(m2, *args) == pytest.approx(2 * d2d_delay(m1, *args), rel=1e-12)
    huge_intf = d2d_delay(m1, 0.5e6, 0.1, 1e-3, 1e6, N0)
    assert huge_intf > 1e6 * d2d_delay(m1, *args)


def test_d2d_zero_power_dead_link(table2_cfg):
    with pytest.raises(StalledLinkError, match="dead link"):
        d2d_delay(table2_cfg.model, 0.5e6, 0.0, 1e-3, 5e-10, N0)


def test_d2d_zero_rate_stalled_link(table2_cfg):
    # a gain so small that the rate underflows to zero must not divide by it
    with pytest.raises(StalledLinkError, match="stalled d2d link"):
        d2d_delay(table2_cfg.model, 0.5e6, 0.1, 1e-40, 5e-10, N0)


def test_d2d_pure_function_of_arguments(table2_cfg):
    args = (table2_cfg.model, 0.5e6, 0.08, 1e-3, 5e-10, N0)
    assert d2d_delay(*args) == d2d_delay(*args)


def test_channel_assignment_structure():
    a = ChannelAssignment(n_channels=2, assigned=(0, None, 1))
    m = a.matrix()
    assert m.shape == (3, 2)
    assert m.sum() == 2
    assert list(m.sum(axis=0)) == [1, 1]  # each channel at most once
    assert a.is_transmitting(0) and not a.is_transmitting(1)
    with pytest.raises(ValueError):
        ChannelAssignment(n_channels=2, assigned=(0, 0))
    with pytest.raises(ValueError):
        ChannelAssignment(n_channels=2, assigned=(3,))
