import importlib.util
import os

import numpy as np
import pytest

from edgesched.config import build_config, load_config
from edgesched.convergence import balance_power_threshold

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE2 = os.path.join(REPO_ROOT, "configs", "table2.json")
HOMOGENEOUS = os.path.join(REPO_ROOT, "configs", "homogeneous.json")
BINDING = os.path.join(REPO_ROOT, "configs", "binding.json")


@pytest.fixture(scope="session")
def table2_cfg():
    return load_config(TABLE2)


@pytest.fixture(scope="session")
def homogeneous_cfg():
    return load_config(HOMOGENEOUS)


def minimal_doc() -> dict:
    """Smallest legal system: one cluster, one device, one channel."""
    return {"J": 1, "clusters": [{"devices": [{}]}]}


def workload_doc(name: str, seed: int) -> dict:
    """The roundbench workload ``name``'s config document at ``seed``."""
    path = os.path.join(REPO_ROOT, "roundbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("roundbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_doc(name, seed)


def random_system_doc(rng: np.random.Generator, max_devices=4, max_blocks=8, max_batch=32) -> dict:
    """Random small single-cluster system for solver-vs-oracle batteries."""
    k = int(rng.integers(1, max_devices + 1))
    devices = []
    for _ in range(k):
        devices.append(
            {
                "phi_flops_per_cycle": float(rng.uniform(5, 30)),
                "f_hz": float(rng.uniform(1e8, 8e8)),
                "p_dd_w": float(rng.uniform(0.05, 0.15)),
                "P_k_max_w": 0.2,
                "gamma_max_bytes": float(rng.uniform(0.5e9, 2e9)),
                "gamma0_bytes": 2.5e8,
                "E_k_max_j": float(rng.uniform(0.5, 5.0)),
                "kappa": float(rng.choice([1e-27, 3e-28])),
            }
        )
    return {
        "rng_seed": int(rng.integers(0, 10**6)),
        "J": 1,
        "model": {
            "L": int(rng.integers(1, max_blocks + 1)),
            "b": int(rng.integers(1, max_batch + 1)),
            "o_fwd_flops": float(rng.uniform(5e5, 5e6)),
            "o_bwd_flops": float(rng.uniform(5e5, 5e6)),
            "z_seg_bits": float(rng.uniform(1e4, 2e5)),
            "g_seg_bits": float(rng.uniform(1e4, 2e5)),
            "z_enc_bits": 5e5,
            "theta_enc_bits": 5e5,
        },
        "convergence": {
            "beta": 1.0,
            "eta": 0.01,
            "xi": 1.0,
            "phi": 1.0,
            "C": 0.0559,
            "gamma_max_bound": float(rng.uniform(2e-5, 1e-3)),
            "V": float(rng.choice([0.01, 1.0, 10.0])),
        },
        "clusters": [{"devices": devices}],
    }


def random_system(rng: np.random.Generator, **kwargs):
    return build_config(random_system_doc(rng, **kwargs))


def balance_thresholds(params, n_clusters: int, n_blocks: int, gain: float, interference_w: float) -> list[float]:
    """The C11 thresholds p_1, ..., p_L, each from ``balance_power_threshold``."""
    return [
        balance_power_threshold(params, n_clusters, n_blocks, s, gain, interference_w) for s in range(1, n_blocks + 1)
    ]
