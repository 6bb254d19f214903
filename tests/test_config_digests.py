"""Config digests: the sha256 of every ``build_config`` answer over a single-fault battery.

Each base document is built once per (path, value): the path is one of its
leaves or sections, or one of the keys in ``INJECTED`` (set whether or not the
document has it), and the value one of ``VALUES``, a mix of legal, edge and
bad numbers, non-numbers, intervals and sections. The whole document is also
replaced by each value. Base documents:

- ``table2``, ``homogeneous`` and ``binding``: the shipped configs;
- ``keyed``: one cluster of one device that writes out every key, each with
  a value other than its default, except ``convergence.C``, whose default
  formula it leaves to run.

A built config is hashed by its ``repr``, a rejected one by its
``ConfigError``'s ``(field, reason)``, and any other exception by its class
and message. There is one sha256 per (base document, sub-battery), the
sub-battery being the section the path starts in: ``model``,
``convergence``, ``loss_proxy`` or ``clusters``; ``root`` for the channel
count and the two noise-density keys; ``seed`` for ``rng_seed``; ``doc`` for
the whole document.

A change that is meant to keep config ingestion must keep this test
passing. A change meant to alter it regenerates the fixture and lists the
keys that changed; the script prints how many changed and which:

    PYTHONPATH=src python tests/test_config_digests.py
"""

import copy
import hashlib
import json
import math
import os

from edgesched.config import build_config
from edgesched.errors import ConfigError

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "data", "config_digests.json")
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
SUB_BATTERIES = ("model", "convergence", "loss_proxy", "clusters", "root", "seed", "doc")
ROOT_KEYS = ("J", "N0_w_per_hz", "N0_dbm_per_hz")
INJECTED = tuple((key,) for key in ROOT_KEYS) + (("rng_seed",), ("convergence", "C"))
VALUES = (
    0,
    1,
    -1,
    0.5,
    2.5,
    5e-324,
    1e308,
    -1e308,
    10**400,  # an integer no float can hold
    math.inf,
    -math.inf,
    math.nan,
    True,
    None,
    "1",
    {},
    [],
    [0.5, 2],
    [2, 0.5],
    [-1e308, 1e308],  # finite ends, infinite width
)
KEYED = {
    "rng_seed": 3,
    "J": 2,
    "N0_dbm_per_hz": -170,
    "model": {
        "L": 8,
        "o_fwd_flops": 3e6,
        "o_bwd_flops": 1e6,
        "z_seg_bits": 4e4,
        "g_seg_bits": 3e4,
        "z_enc_bits": 6e5,
        "theta_enc_bits": 4e5,
        "b": 32,
    },
    "convergence": {
        "beta": 2.0,
        "eta": 0.02,
        "xi": 0.5,
        "phi": 1.5,
        "gamma_max_bound": 0.5,
        "V": 5.0,
        "F0_gap": 2.0,
    },
    "loss_proxy": {"scale": 2.0, "tau0": 40.0, "noise": 0.2},
    "clusters": [
        {
            "P_n_max_w": 0.4,
            "E_n_max_j": 8.0,
            "B_up_hz": 4e5,
            "B_dd_hz": 6e5,
            "h_up_db": [-0.2, -0.1],
            "h_dd_db": [-31.0, -29.0],
            "I_up_w": [0.05, 0.07],
            "I_dd_w": [4e-10, 6e-10],
            "devices": [
                {
                    "phi_flops_per_cycle": 12.0,
                    "f_hz": [2e8, 6e8],
                    "p_dd_w": 0.07,
                    "P_k_max_w": 0.2,
                    "gamma_max_bytes": 2e9,
                    "gamma0_bytes": 2e8,
                    "E_k_max_j": 4.0,
                    "kappa": 2e-27,
                }
            ],
        }
    ],
}


def _base_docs() -> dict:
    docs = {}
    for name in ("table2", "homogeneous", "binding"):
        with open(os.path.join(CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    docs["keyed"] = copy.deepcopy(KEYED)
    return docs


def _paths(node, prefix=()):
    """Every leaf and section under ``node``, parents before their children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _sub_battery(path) -> str:
    if not path:
        return "doc"
    if path[0] in ROOT_KEYS:
        return "root"
    return "seed" if path[0] == "rng_seed" else path[0]


def _outcome(doc) -> tuple:
    try:
        return ("ok", repr(build_config(doc)))
    except ConfigError as exc:
        return ("rejected", exc.field, exc.reason)
    except Exception as exc:  # pinned too, so that a change of class shows
        return ("raised", type(exc).__name__, str(exc))


def _cases(doc):
    """(path, value, outcome) for each single fault, the document restored after each."""
    paths = list(_paths(doc))
    paths += [p for p in INJECTED if p not in paths]
    for value in VALUES:
        yield (), value, _outcome(value)
    for path in paths:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        last = path[-1]
        had, old = (last in parent, parent.get(last)) if isinstance(parent, dict) else (True, parent[last])
        for value in VALUES:
            parent[last] = value
            yield path, value, _outcome(doc)
        if had:
            parent[last] = old
        else:
            del parent[last]


def _digests() -> dict:
    out = {}
    for base, doc in _base_docs().items():
        hashes = {name: hashlib.sha256() for name in SUB_BATTERIES}
        for path, value, outcome in _cases(doc):
            hashes[_sub_battery(path)].update((repr((path, value, outcome)) + "\n").encode())
        out.update({f"{base}/{name}": h.hexdigest() for name, h in hashes.items()})
    return out


def _load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def _changed(want: dict, got: dict) -> list[str]:
    """Keys whose digest differs, or that only one of the two has, sorted."""
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


def test_config_digests_match_the_fixture():
    want = _load_fixture()
    got = _digests()
    changed = _changed(want, got)
    assert not changed, f"{len(changed)} of {len(want)} config digests changed: {changed}"


if __name__ == "__main__":
    old = _load_fixture() if os.path.exists(FIXTURE) else {}
    new = _digests()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    changed = _changed(old, new)
    print(f"{len(changed)} of {len(new)} digests changed")
    for key in changed:
        print(f"  {key}")
