"""Every SSM entry point reads its inputs through one contract: a sequence
through ``ssm_core._layer_inputs``, a single step through ``_step_vector``
and ``_step_gate``. A malformed argument raises a ValueError that names it,
and its row where it has rows."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridssm.seqpar import conv1d_sp, p2p_forward, shard
from hybridssm.ssm_core import (GateTrack, GkaInfoState, ShermanMorrisonGain, SsmKind,
                                chebyshev_solve, gka_gain, gka_info_update,
                                gka_recurrence_equivalence, run_chunk, ssm_forward)
from hybridssm.tiled_decode import VARIANTS, decode_step

T, D_K, D_V = 8, 4, 3
GATES = GateTrack(gamma=np.ones(T), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
INFO = GkaInfoState(h=np.diag([1.0, 0.5, 0.25, 0.0]), u=np.ones((D_V, D_K)))
H = np.diag([1.0, 2.0, 3.0, 4.0])

# roles: a sequence with one row per gate step, the conv input u (rows of
# channels), the conv taps w, a step vector of length n, a gate in [0, 1],
# a regularizer lam > 0, a GKA state whose h and u a real-only form keeps real
ROWS, U, TAPS, GATE, LAM, STATE = "rows", "u", "taps", "gate", "lam", "state"
SEQUENCES = {"k": ROWS, "v": ROWS, "q": ROWS}


def _vector(n):
    return ("vector", n)


def _valid(rng):
    k = rng.standard_normal((T, D_K))
    return {"k": k / np.linalg.norm(k, axis=1, keepdims=True),
            "v": rng.standard_normal((T, D_V)), "q": rng.standard_normal((T, D_K)),
            "u": rng.standard_normal((T, 2)), "w": rng.standard_normal(3),
            "k_t": k[0] / np.linalg.norm(k[0]), "v_t": rng.standard_normal(D_V),
            "q_t": rng.standard_normal(D_K), "gamma": 0.9, "beta": 0.5, "lam": 0.5,
            "state": INFO}


# entry point -> (call, {argument: role}, arguments its form keeps real).
# A step argument k, v or q is read from the valid dict as k_t, v_t or q_t.
# decode_step runs one variant per kind, so the drawn kind covers all three
ENTRIES = {
    "ssm_forward": (lambda a, kind: ssm_forward(kind, a["k"], a["v"], a["q"], GATES),
                    SEQUENCES, ()),
    "run_chunk": (lambda a, kind: run_chunk(kind, a["k"], a["v"], GATES),
                  {"k": ROWS, "v": ROWS}, ()),
    "p2p_forward": (lambda a, kind: p2p_forward(
                        SsmKind.MAMBA2 if kind is SsmKind.GKA else kind,
                        a["k"], a["v"], a["q"], GATES, shard(T, 2)),
                    SEQUENCES, ()),
    "gka_recurrence_equivalence": (lambda a, kind: gka_recurrence_equivalence(
                                       a["k"], a["v"], a["q"], GATES),
                                   SEQUENCES, ("k", "v", "q")),
    "gka_info_update": (lambda a, kind: gka_info_update(INFO, a["k_t"], a["v_t"], a["gamma"],
                                                        a["beta"]),
                        {"k": _vector(D_K), "v": _vector(D_V), "gamma": GATE, "beta": GATE}, ()),
    "gka_gain": (lambda a, kind: gka_gain(INFO, a["k_t"], a["beta"], a["lam"]),
                 {"k": _vector(D_K), "beta": GATE, "lam": LAM}, ()),
    "ShermanMorrisonGain.update": (lambda a, kind: ShermanMorrisonGain(D_K, 0.5).update(
                                       a["k_t"], a["beta"]),
                                   {"k": _vector(D_K), "beta": GATE}, ("k",)),
    "chebyshev_solve": (lambda a, kind: chebyshev_solve(H, 0.5, a["q_t"], 3, (1.5, 4.5)),
                        {"q": _vector(D_K)}, ()),
    "decode_step": (lambda a, kind: decode_step(a["state"], a["k_t"], a["v_t"], a["q_t"],
                                                a["gamma"], a["beta"],
                                                VARIANTS[list(SsmKind).index(kind)],
                                                r=2, b_k=2, b_v=D_V),
                    {"k": _vector(D_K), "v": _vector(D_V), "q": _vector(D_K),
                     "gamma": GATE, "beta": GATE, "state": STATE}, ("k", "v", "q", "state")),
    "conv1d_sp": (lambda a, kind: conv1d_sp(a["u"], a["w"], shard(T, 2)),
                  {"u": U, "w": TAPS}, ("u", "w")),
}

BAD_GATES = [np.nan, np.inf, -np.inf, -0.25, 1.5, 0.5 + 1e-30j]
BAD_LAMS = [np.nan, np.inf, 0.0, -1.0]


@st.composite
def malformed_calls(draw):
    """(entry, kind, arguments, expected message regex): one argument of one
    entry point made malformed, all others valid."""
    entry = draw(st.sampled_from(sorted(ENTRIES)))
    _, roles, real_only = ENTRIES[entry]
    name = draw(st.sampled_from(sorted(roles)))
    role = roles[name]
    kind = draw(st.sampled_from(list(SsmKind)))
    a = _valid(np.random.default_rng(draw(st.integers(0, 2**16))))
    key = name + "_t" if isinstance(role, tuple) else name
    x = a[key]
    if role == STATE:
        # a complex-step H or U, built past the public check as a derived
        # state is; the real-only form must name it, not fail on a cast
        part = draw(st.sampled_from(["h", "u"]))
        parts = {"h": x.h, "u": x.u}
        parts[part] = parts[part] + 1e-30j
        a[key] = GkaInfoState._derived(**parts)
        return entry, kind, a, rf"^state\.{part} is complex"
    faults = ["non-finite"] + (["complex"] if name in real_only else [])
    if role in (ROWS, U) or isinstance(role, tuple):
        faults += ["rank", "length"]
    if role in (GATE, LAM):
        bad = draw(st.sampled_from(BAD_GATES if role == GATE else BAD_LAMS))
        a[key] = bad
        message = (f"{name} must lie in [0, 1], got {bad}" if role == GATE
                   else f"lam must be positive and finite, got {bad}")
        return entry, kind, a, "^" + re.escape(message)
    fault = draw(st.sampled_from(faults))
    if fault == "complex":
        a[key] = x + 1e-30j
        return entry, kind, a, f"^{name} is complex"
    if fault == "non-finite":
        x = x.copy()
        index = tuple(draw(st.integers(0, n - 1)) for n in x.shape)
        x[index] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        a[key] = x
        where = "entry" if isinstance(role, tuple) else "row"
        return entry, kind, a, f"^{name} is non-finite at {where} {index[0]}$"
    if fault == "rank":
        a[key] = x[None] if draw(st.booleans()) else x[..., 0]
    else:
        a[key] = x[:-1] if draw(st.booleans()) else np.concatenate([x, x[:1]])
    if isinstance(role, tuple):
        return entry, kind, a, f"^{name} must be a vector of length {role[1]}"
    if role == U:
        return entry, kind, a, f"^u must be \\(length, channels\\) with length {T}"
    return entry, kind, a, f"^{name} must be 2-D with one row per gate step"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=malformed_calls())
def test_every_entry_point_names_a_malformed_argument(call):
    entry, kind, args, message = call
    with pytest.raises(ValueError, match=message):
        ENTRIES[entry][0](args, kind)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_point_accepts_the_valid_arguments(entry):
    # the property's base case: the arguments it spoils one at a time are
    # valid, so only the spoiled one can raise
    for kind in SsmKind:
        ENTRIES[entry][0](_valid(np.random.default_rng(0)), kind)
