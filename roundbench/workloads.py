"""Seeded workload generator: one config document and policy list per workload.

The shape of every workload (cluster count, devices, blocks, channels, caps)
is fixed here. The seed only becomes the document's ``rng_seed``, so it
changes the per-round environment draws and nothing else. The program under
test receives only the generated document.
"""

from __future__ import annotations

# rounds per pass; each pass replays rounds 1..R of one seed. R is large enough
# that the spread of round costs between seeds stays small, and a pass takes
# about 0.5-1 s
PASS_ROUNDS = {"paper": 96, "encoder": 96, "contended": 4, "baselines": 300}

POLICIES = {
    "paper": ("lyapunov",),
    "encoder": ("lyapunov",),
    "contended": ("lyapunov",),
    "baselines": ("random", "loss", "delay"),
}

WORKLOADS = tuple(PASS_ROUNDS)

_MODEL = {
    "L": 6,
    "o_fwd_flops": 2e6,
    "o_bwd_flops": 2e6,
    "z_seg_bits": 3.5e4,
    "g_seg_bits": 3.5e4,
    "z_enc_bits": 5e5,
    "theta_enc_bits": 5e5,
    "b": 64,
}

_CONVERGENCE = {
    "beta": 1.0,
    "eta": 0.01,
    "xi": 1.0,
    "phi": 1.0,
    "C": 0.0559,
    "gamma_max_bound": 5e-5,
    "V": 10.0,
    "F0_gap": 1.0,
}


def _device(phi: float, p_dd: float, f_hz=(1e8, 8e8)) -> dict:
    return {
        "phi_flops_per_cycle": phi,
        "f_hz": list(f_hz),
        "p_dd_w": p_dd,
        "P_k_max_w": 0.18,
        "gamma_max_bytes": 1.5e9,
        "gamma0_bytes": 2.5e8,
        "E_k_max_j": 5.0,
    }


def _cluster(b_up: float, devices: list[dict], i_up=(0.06, 0.08)) -> dict:
    return {
        "B_up_hz": b_up,
        "B_dd_hz": 5e5,
        "P_n_max_w": 0.5,
        "E_n_max_j": 10.0,
        "h_up_db": [-0.12, -0.08],
        "h_dd_db": -30,
        "I_up_w": list(i_up),
        "I_dd_w": 5e-10,
        "devices": devices,
    }


def _paper() -> dict:
    """The configs/table2.json shape: N=3, K=6, L=6, J=4."""
    phis = (10, 13, 16, 19, 22, 24)
    p_dds = (0.07, 0.076, 0.082, 0.088, 0.094, 0.1)
    clusters = [_cluster(b_up, [_device(f, p) for f, p in zip(phis, p_dds)]) for b_up in (4e5, 5e5, 6e5)]
    return {"J": 4, "N0_dbm_per_hz": -174, "model": dict(_MODEL), "convergence": dict(_CONVERGENCE), "clusters": clusters}


def _encoder() -> dict:
    """One cluster of ten heterogeneous devices, 16 blocks, 6-block memory caps.

    Clocks vary by 12 % per round, not 8x as in table2, so the search effort
    per round stays within a narrow band and a pass's median is steady.
    """
    phis = (8, 10, 12, 14, 16, 18, 20, 22, 24, 26)
    devices = [_device(f, 0.07 + 0.003 * i, (7e8, 8e8)) for i, f in enumerate(phis)]
    model = dict(_MODEL, L=16)
    conv = dict(_CONVERGENCE, gamma_max_bound=1.0)
    return {"J": 1, "N0_dbm_per_hz": -174, "model": model, "convergence": conv, "clusters": [_cluster(5e5, devices)]}


def _contended() -> dict:
    """Six two-device clusters on three channels under a tight balance cap.

    Uplink interference is fixed at 0.058 W, so a cluster left off the air
    has error C/I = 0.964 and lifts the balance bound 2.7 % over its cap in
    every round: queues grow every round, block-coordinate descent runs all
    its sweeps and power control works in the interior. A drawn interference
    would put some rounds over the cap and others under it, and the mix of
    costly and cheap rounds would differ from seed to seed.
    """
    clusters = []
    for n in range(6):
        devices = [_device(12 + 2 * ((n + k) % 6), 0.07 + 0.005 * k) for k in range(2)]
        clusters.append(_cluster(4e5 + 5e4 * n, devices, (0.058, 0.058)))
    model = dict(_MODEL, L=2, b=4)
    # 2*N*gamma_max/(beta*eta^2) = 2.4: one segment fits under the cap, two never do
    conv = dict(_CONVERGENCE, gamma_max_bound=2e-5, V=3e-6)
    return {"J": 3, "N0_dbm_per_hz": -174, "model": model, "convergence": conv, "clusters": clusters}


_SHAPES = {"paper": _paper, "encoder": _encoder, "contended": _contended, "baselines": _paper}


def make_doc(workload: str, seed: int) -> dict:
    """Config document of a workload; the seed becomes ``rng_seed`` only."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    doc = _SHAPES[workload]()  # built fresh on every call
    doc["rng_seed"] = int(seed)
    return doc
