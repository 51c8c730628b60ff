"""Randomized invariants over states, channels, tensors, probabilities."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qnl.bell import cglmp_settings, probability_table
from qnl.channels import (
    ChannelKind,
    ChannelSpec,
    amplitude_damping_kraus,
    channel_output,
)
from qnl.states import SchmidtState, to_density
from qnl.tensor import correlation_tensor, schmidt_correlation_tensor

from oracles import depolarizing_kraus

RELAXED = settings(max_examples=25, deadline=None)


def assert_density(rho, d, tol=1e-10):
    assert rho.shape == (d * d, d * d)
    assert np.linalg.norm(rho - rho.conj().T) < tol
    assert abs(np.trace(rho).real - 1.0) < tol
    assert np.linalg.eigvalsh(rho).min() > -tol


@st.composite
def schmidt_states(draw, dims=(2, 3, 4)):
    d = draw(st.sampled_from(dims))
    raw = draw(st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=d, max_size=d))
    c = np.sqrt(np.array(raw) / np.sum(raw))
    return SchmidtState(d, c)


@RELAXED
@given(schmidt_states(),
       st.sampled_from([ChannelKind.WHITE, ChannelKind.PRODUCT,
                        ChannelKind.DEPOLARIZING, ChannelKind.AMPLITUDE_DAMPING]),
       st.floats(0.0, 1.0, allow_nan=False))
def test_channel_outputs_are_density_matrices(psi, kind, strength):
    rho = channel_output(psi, ChannelSpec(kind, strength))
    assert_density(rho.rho, psi.d)


@RELAXED
@given(st.sampled_from([2, 3, 4, 5]), st.floats(0.0, 1.0, allow_nan=False))
def test_kraus_sets_complete(d, strength):
    for ks in (depolarizing_kraus(d, strength), amplitude_damping_kraus(d, strength)):
        s = sum(k.conj().T @ k for k in ks.operators)
        assert np.linalg.norm(s - np.eye(d)) < 1e-10


@RELAXED
@given(schmidt_states())
def test_closed_form_tensor_matches_trace_form(psi):
    direct = correlation_tensor(to_density(psi)).t
    closed = schmidt_correlation_tensor(psi).t
    assert np.max(np.abs(direct - closed)) < 1e-9


@RELAXED
@given(schmidt_states(), st.floats(0.0, 1.0, allow_nan=False))
def test_white_noise_scales_tensor_linearly(psi, v):
    base = correlation_tensor(to_density(psi)).t
    out = channel_output(psi, ChannelSpec(ChannelKind.WHITE, v))
    noisy = correlation_tensor(out).t
    assert np.max(np.abs(noisy - v * base)) < 1e-12


@RELAXED
@given(schmidt_states(dims=(2, 3)), st.floats(0.0, 1.0, allow_nan=False))
def test_probability_tables_normalized(psi, r):
    rho = channel_output(psi, ChannelSpec(ChannelKind.AMPLITUDE_DAMPING, r))
    table = probability_table(rho, cglmp_settings(psi.d))
    assert table.min() > -1e-12
    sums = table.sum(axis=(2, 3))
    assert np.max(np.abs(sums - 1.0)) < 1e-8
