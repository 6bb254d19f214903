import math

import numpy as np
import pytest

from edgesched.config import ConvergenceParams
from edgesched.convergence import (
    RunningGapBound,
    gamma_round,
    gamma_round_from_error,
    interference_error,
    max_segments_within_gamma,
    optimality_gap_bound,
    sigma,
    sigma_positive_eta_threshold,
)


def params(beta=1.0, eta=0.01, xi=1.0, phi=1.0, c=0.0559, gamma_max=5e-5, v=10.0):
    return ConvergenceParams(
        beta=beta, eta=eta, xi=xi, phi_bound=phi, c_interference=c, gamma_max=gamma_max, v_factor=v
    )


def test_interference_error_values():
    assert interference_error(0.5, 0.98, 0.07, 0.0) == 0.0
    assert interference_error(0.5, 0.98, 0.07, 1.0) == pytest.approx(1.0 / 0.56, rel=1e-12)
    prev = math.inf
    for p in (0.01, 0.1, 1.0, 10.0, 1e4):
        e = interference_error(p, 0.98, 0.07, 1.0)
        assert e < prev
        prev = e
    assert interference_error(1e12, 0.98, 0.07, 1.0) < 1e-11


def test_sigma_values_and_threshold():
    p0 = params(eta=1e-12)
    assert sigma(p0, 2, 3, 6) == pytest.approx(0.0, abs=1e-11)
    # monotone decreasing in S at fixed N*L
    p = params(eta=0.05)
    assert sigma(p, 4, 3, 6) < sigma(p, 2, 3, 6)
    # sigma > 0 exactly below the quadratic threshold
    for s, n, l, beta, xi in [(1, 1, 6, 1.0, 1.0), (3, 3, 6, 2.0, 0.7), (5, 2, 12, 0.5, 1.3)]:
        thr = sigma_positive_eta_threshold(params(beta=beta, xi=xi), s, n, l)
        assert thr == pytest.approx(2 * xi / (beta * (1 + s**2 / (n * l))), rel=1e-12)
        assert sigma(params(beta=beta, xi=xi, eta=thr * 0.999), s, n, l) > 0
        assert sigma(params(beta=beta, xi=xi, eta=thr * 1.001), s, n, l) < 0
        assert abs(sigma(params(beta=beta, xi=xi, eta=thr), s, n, l)) < 1e-15


def test_gamma_round_values():
    p = params(c=0.0)
    n, l = 3, 6
    expected = p.beta * p.eta**2 / (2 * n) * (1.0 / l + 1.0)  # phi=1, S=1, eps=0
    assert gamma_round(1, 0.5, 0.98, 0.07, p, n, l) == pytest.approx(expected, rel=1e-12)
    p2 = params()
    vals = [gamma_round(s, 0.5, 0.98, 0.07, p2, n, l) for s in range(1, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # strictly increasing in S
    # direct evaluation at representative values
    eps = interference_error(0.5, 0.98, 0.07, 0.0559)
    direct = 1.0 * 1e-4 / 6 * (9 / 6 + eps + 1.0)
    assert gamma_round(3, 0.5, 0.98, 0.07, p2, n, l) == pytest.approx(direct, rel=1e-12)
    assert gamma_round_from_error(3, eps, p2, n, l) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        gamma_round(0, 0.5, 0.98, 0.07, p2, n, l)
    with pytest.raises(ValueError):
        gamma_round(1, -0.5, 0.98, 0.07, p2, n, l)


def test_gamma_decreasing_in_power():
    p = params()
    lo = gamma_round(2, 0.05, 0.98, 0.07, p, 3, 6)
    hi = gamma_round(2, 0.5, 0.98, 0.07, p, 3, 6)
    assert hi < lo


def test_max_segments_within_gamma_inverts_gamma():
    p = params()
    n, l = 3, 6
    eps = 0.1
    s_cap = max_segments_within_gamma(eps, p, n, l)
    assert s_cap >= 1
    assert gamma_round_from_error(s_cap, eps, p, n, l) <= p.gamma_max * (1 + 1e-9)
    assert gamma_round_from_error(s_cap + 1, eps, p, n, l) > p.gamma_max
    assert max_segments_within_gamma(1e9, p, n, l) == 0
    # a budget whose S^2 overflows to inf allows every segment count up to L
    assert max_segments_within_gamma(eps, params(gamma_max=1e308), n, l) == l


def test_gap_bound_base_case():
    p = params(eta=0.05)
    n, l = 2, 4
    s0, eps0 = 2, 0.3
    sg = sigma(p, s0, n, l)
    assert 0 < sg < 1
    expected = (
        (1 - 2 * sg) * 3.0
        + p.beta * p.eta**2 * p.phi_bound**2 / n * (s0**2 / l + 1)
        + p.eta / n * eps0
    )
    got = optimality_gap_bound([s0], [eps0], 3.0, p, n, l)
    assert got == pytest.approx(expected, rel=1e-12)


def test_gap_bound_constant_schedule_matches_geometric_series():
    # eps = 0, S = 1 for all rounds: independent loop-free evaluation
    p = params(eta=0.05)
    n, l = 1, 6
    sg = sigma(p, 1, n, l)
    assert 0 < sg < 1
    for t_rounds in (1, 2, 10, 57):
        c = p.beta * p.eta**2 * p.phi_bound**2 / n * (1 / l + 1)
        closed = (1 - 2 * sg) ** t_rounds * 2.0 + c * (1 - (1 - sg) ** t_rounds) / sg
        got = optimality_gap_bound([1] * t_rounds, [0.0] * t_rounds, 2.0, p, n, l)
        assert got == pytest.approx(closed, rel=1e-12)


def test_gap_bound_monotone_in_power():
    p = params(eta=0.04)
    n, l = 3, 6
    rng = np.random.default_rng(3)
    for _ in range(50):
        t_rounds = int(rng.integers(1, 12))
        segs = [int(rng.integers(1, 4)) for _ in range(t_rounds)]
        powers = [float(rng.uniform(0.05, 0.5)) for _ in range(t_rounds)]
        eps = [interference_error(q, 0.98, 0.07, 0.0559) for q in powers]
        base = optimality_gap_bound(segs, eps, 1.0, p, n, l)
        assert base is not None and math.isfinite(base)
        i = int(rng.integers(0, t_rounds))
        powers2 = list(powers)
        powers2[i] *= 2.0
        eps2 = [interference_error(q, 0.98, 0.07, 0.0559) for q in powers2]
        bumped = optimality_gap_bound(segs, eps2, 1.0, p, n, l)
        assert bumped <= base + 1e-15


def test_gap_bound_divergent_marker_and_empty_history():
    p = params(eta=3.0)  # far beyond any admissible rate
    assert sigma(p, 1, 1, 6) <= 0
    assert optimality_gap_bound([1], [0.0], 1.0, p, 1, 6) is None
    with pytest.raises(ValueError):
        optimality_gap_bound([], [], 1.0, params(), 1, 6)


def test_running_bound_matches_standalone():
    p = params(eta=0.03)
    n, l = 3, 6
    rng = np.random.default_rng(11)
    segs, eps = [], []
    running = RunningGapBound(1.5, p, n, l)
    for _ in range(40):
        segs.append(int(rng.integers(1, 4)))
        eps.append(float(rng.uniform(0.0, 0.4)))
        incremental = running.observe(segs[-1], eps[-1])
        standalone = optimality_gap_bound(segs, eps, 1.5, p, n, l)
        assert incremental == pytest.approx(standalone, rel=1e-12)
    assert running.value == pytest.approx(optimality_gap_bound(segs, eps, 1.5, p, n, l), rel=1e-12)


def test_running_bound_divergence_is_sticky():
    p = params(eta=0.03)
    running = RunningGapBound(1.0, p, 1, 6)
    assert running.observe(1, 0.0) is not None
    assert running.observe(50, 0.0) is None  # S^2/(N*L) explodes sigma below 0
    assert running.observe(1, 0.0) is None
    assert running.value is None
