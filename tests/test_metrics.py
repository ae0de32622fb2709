import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasticity_lab.metrics import (
    avg_online_task_accuracy,
    batch_accuracy,
    feature_srank_probe,
    mean_param_magnitude,
    srank,
    total_avg_online_accuracy,
)
from plasticity_lab.nn import NetworkSpec, ParameterSet, hidden_feature_matrices, init_params
from plasticity_lab.rng import RngStream


def kahan_mean(values):
    """Compensated summation, as an independent averaging oracle."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / len(values)


def jacobi_gram_eigenvalues(gram, sweeps=60):
    """Classical two-sided Jacobi eigensolver for a symmetric matrix."""
    a = gram.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] ** 2
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-30:
            break
    return np.sort(np.diag(a))[::-1]


def srank_by_cumulative_scan(s, delta=0.01):
    total = sum(s)
    running = 0.0
    for k, v in enumerate(s, start=1):
        running += v
        if running / total >= 1.0 - delta:
            return k
    return len(s)


# --- batch accuracy ------------------------------------------------------

def test_batch_accuracy_all_correct():
    logits = np.eye(4, 10) * 5.0
    assert batch_accuracy(logits, np.arange(4)) == 1.0


def test_batch_accuracy_tie_breaks_to_lowest_class():
    logits = np.zeros((3, 10))
    assert batch_accuracy(logits, np.zeros(3, dtype=int)) == 1.0
    assert batch_accuracy(logits, np.ones(3, dtype=int)) == 0.0


def test_batch_accuracy_half():
    logits = np.zeros((4, 10))
    logits[0, 2] = 1.0
    logits[1, 2] = 1.0
    labels = np.array([2, 2, 4, 5])
    assert batch_accuracy(logits, labels) == 0.5


# --- averages --------------------------------------------------------------

def test_task_average_constant():
    a = np.full(20, 0.9)
    assert avg_online_task_accuracy(a, 5, 10) == pytest.approx(0.9, abs=1e-15)


def test_task_average_two_values():
    assert avg_online_task_accuracy(np.array([0.0, 1.0]), 0, 2) == 0.5


def test_task_average_matches_kahan_oracle():
    vals = RngStream(3).uniform(0, 1, 625)
    got = avg_online_task_accuracy(vals, 0, 625)
    assert abs(got - kahan_mean(list(vals))) < 1e-12


def test_total_average_constant():
    assert total_avg_online_accuracy(np.full(7, 0.25)) == 0.25


def test_total_average_equals_mean_of_task_averages():
    vals = RngStream(4).uniform(0, 1, 12 * 50)
    per_task = [avg_online_task_accuracy(vals, i * 50, 50) for i in range(12)]
    assert abs(total_avg_online_accuracy(vals) - np.mean(per_task)) < 1e-12


# --- parameter magnitude ------------------------------------------------------

def test_mean_magnitude_zero_params():
    ps = ParameterSet({"w0": np.zeros((3, 3))}, {"w0": ("uniform", 1.0)})
    assert mean_param_magnitude(ps) == 0.0


def test_mean_magnitude_unit_values():
    ps = ParameterSet(
        {"w0": np.array([1.0, -1.0]), "b0": np.array([-1.0])},
        {"w0": ("uniform", 1.0), "b0": ("uniform", 1.0)},
    )
    assert mean_param_magnitude(ps) == 1.0


def test_mean_magnitude_matches_loop_oracle():
    spec = NetworkSpec(kind="mlp", input_shape=(12,), hidden_widths=(7, 5))
    params = init_params(spec, RngStream(5).split("init"))
    total, count = 0.0, 0
    for arr in params.values.values():
        for v in arr.ravel():
            total += abs(v)
            count += 1
    assert abs(mean_param_magnitude(params) - total / count) < 1e-12


def test_mean_magnitude_is_global_not_per_tensor():
    ps = ParameterSet(
        {"w0": np.full(9, 2.0), "b0": np.zeros(1)},
        {"w0": ("uniform", 1.0), "b0": ("uniform", 1.0)},
    )
    assert mean_param_magnitude(ps) == pytest.approx(1.8)  # 18 / 10, not (2 + 0) / 2


# --- srank --------------------------------------------------------------------

def test_srank_rank_one_spectrum():
    assert srank(np.array([7.0, 0.0, 0.0])) == 1


def test_srank_flat_spectrum_100():
    assert srank(np.ones(100)) == 99
    assert srank_by_cumulative_scan([1.0] * 100) == 99


def test_srank_worked_example():
    assert srank(np.array([10.0, 1.0, 0.01])) == 2
    assert srank_by_cumulative_scan([10.0, 1.0, 0.01]) == 2


@settings(max_examples=1000, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 30),
    scale=st.floats(1e-6, 1e6),
)
def test_srank_scale_invariant_and_matches_scan_oracle(seed, n, scale):
    s = np.sort(RngStream(seed).uniform(0.0, 1.0, n))[::-1]
    if s.sum() == 0.0:
        return
    base = srank(s)
    assert base == srank(s * scale)
    assert base == srank_by_cumulative_scan(list(s))


@given(seed=st.integers(0, 2**31), n=st.integers(1, 20), zeros=st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_srank_unchanged_by_appended_zeros(seed, n, zeros):
    s = np.sort(RngStream(seed).uniform(0.1, 1.0, n))[::-1]
    assert srank(s) == srank(np.concatenate([s, np.zeros(zeros)]))


def test_srank_bounds():
    for seed in range(20):
        mat = RngStream(seed).uniform(-1, 1, (12, 6))
        r = srank(np.linalg.svd(mat, compute_uv=False))
        assert 1 <= r <= 6


# --- feature rank probe ----------------------------------------------------------

def test_probe_zero_network_reports_zero(caplog):
    spec = NetworkSpec(kind="mlp", input_shape=(8,), hidden_widths=(5, 4))
    params = init_params(spec, RngStream(0).split("init"))
    for k in params.values:
        params.values[k][...] = 0.0
    probe = RngStream(1).uniform(0, 1, (10, 8))
    with caplog.at_level(logging.WARNING):
        assert feature_srank_probe(spec, params, probe) == 0.0
    assert any("dead layer" in r.message for r in caplog.records)


def test_probe_fresh_init_regression_values():
    # frozen from the first implementation run; > 1 per layer at init
    spec = NetworkSpec(kind="mlp", input_shape=(64,), hidden_widths=(30, 30))
    expected = {0: 24.0, 1: 23.0}
    for seed, want in expected.items():
        params = init_params(spec, RngStream(seed).split("init"))
        probe = RngStream(seed).split("probe").uniform(0, 1, (100, 64))
        got = feature_srank_probe(spec, params, probe)
        assert got == want
        assert got > 1.0


def test_probe_invariant_to_sample_duplication():
    spec = NetworkSpec(kind="mlp", input_shape=(10,), hidden_widths=(6, 5))
    params = init_params(spec, RngStream(2).split("init"))
    probe = RngStream(3).uniform(0, 1, (16, 10))
    doubled = np.vstack([probe, probe])
    assert feature_srank_probe(spec, params, probe) == feature_srank_probe(
        spec, params, doubled
    )


@pytest.mark.parametrize("seed", range(5))
def test_probe_matches_gram_eigen_oracle(seed):
    spec = NetworkSpec(kind="mlp", input_shape=(8,), hidden_widths=(6, 5))
    params = init_params(spec, RngStream(seed).split("init"))
    probe = RngStream(seed).split("probe").uniform(0, 1, (10, 8))
    want = []
    for mat in hidden_feature_matrices(spec, params, probe):
        eigs = jacobi_gram_eigenvalues(mat.T @ mat)
        want.append(srank(np.sqrt(np.maximum(eigs, 0.0))))
    assert feature_srank_probe(spec, params, probe) == np.mean(want)
