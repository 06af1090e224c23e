"""Config-driven experiment runner.

Usage: hybridssm --config experiment.json [--seed N] [--out DIR]

The JSON config selects one command and its parameter block:

  {"command": "hankel", "seed": 42, "out": "reports", "params": {...}}

Commands: realize, hankel, ssm-equiv, compose, spsim, tile-bench,
select-layers, perf-model. Every report is CSV (first line names the
config hash) or JSON; identical (config, seed) pairs produce byte-identical
outputs. The exit status reflects invariant violations found while running.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import composition, kernels, perf_model, seqpar, tiled_decode
from .mixing import (DEFAULT_RANK_TOL, build_attention_mixer, build_swa_mixer, hankel_profile,
                     max_hankel_rank, random_token_sequence)
from .priming import importance_scores, make_recall_evaluator, select_layers
from .realization import io_matrix, realize, save_realization, verify_minimality
from .ssm_core import (GateTrack, GkaInfoState, ShermanMorrisonGain, SsmKind,
                       chebyshev_residual_bound, chebyshev_solve, default_spectral_bounds,
                       gka_gain, gka_info_update, gka_recurrence_equivalence, ssm_forward,
                       zero_info_state)
from .tensorio import config_hash, ensure_dir, save_tensor, write_csv, write_json

# params schema: name -> (type, default); cross-field checks live in the
# per-command validators below
_SCHEMAS = {
    "realize": {"T_values": (list, [4, 8, 16, 32, 64]), "trials_per_T": (int, 20),
                "d_k": (int, 8), "scale": (float, 1.0), "rank_tol": (float, DEFAULT_RANK_TOL),
                "tolerance": (float, 1e-9)},
    "hankel": {"T": (int, 3), "d_k": (int, 4), "scale": (float, 0.0),
               "rank_tol": (float, DEFAULT_RANK_TOL), "window": (int, 0),
               "swa_windows": (list, []), "swa_trials": (int, 0)},
    "ssm-equiv": {"trials": (int, 50), "T": (int, 16), "d_k": (int, 6), "d_v": (int, 4),
                  "lam": (float, 0.5), "chebyshev_r": (int, 30),
                  "chebyshev_d": (int, 16), "chebyshev_alpha": (float, 0.1)},
    "compose": {"kind": (str, "mamba2"), "chunks": (int, 4), "chunk_len": (int, 4),
                "d_k": (int, 4), "d_v": (int, 3), "gamma_one": (bool, False)},
    "spsim": {"l_values": (list, [16384, 65536, 262144, 1048576]), "d": (int, 8192),
              "n_sp": (int, 8), "state_bytes": (int, 1048576), "d_conv": (int, 4),
              "n_heads": (int, 32), "elem_bytes": (int, 2),
              "sim_T": (int, 32), "sim_d_k": (int, 4), "sim_d_v": (int, 3),
              "sim_ranks": (list, [2, 4, 8])},
    "tile-bench": {"d_k": (int, 128), "d_v": (int, 128), "b_k": (int, 64), "b_v": (int, 64),
                   "r": (int, 30), "steps": (int, 20), "alpha": (float, 0.05),
                   "g_values": (list, [2, 4, 8, 16])},
    "select-layers": {"M": (int, 1), "window": (int, 2048), "T": (int, 12), "d": (int, 6)},
    "perf-model": {"preset": (str, "linear"), "hybrid_ratio": (float, 0.5), "b": (float, 16.0),
                   "lengths": (list, [1024, 4096, 16384, 65536, 262144, 1048576, 4194304]),
                   "ssm_equiv_tokens": (int, 2048), "c_mlp": (float, 1.0)},
}

_TOP_LEVEL = {"command", "seed", "out", "params"}


@dataclass
class ReportBundle:
    """A run's reports and the violations found while running. Every report
    is written through path, csv or json, which place it in the output
    directory and list it in files, in the order written."""
    out: str
    cfg: dict
    files: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    elapsed: float = 0.0

    def path(self, name: str) -> str:
        path = os.path.join(self.out, name)
        self.files.append(path)
        return path

    def csv(self, name: str, header, rows) -> None:
        write_csv(self.path(name), header, rows, self.cfg)

    def json(self, name: str, obj: dict) -> None:
        write_json(self.path(name), {"config": config_hash(self.cfg), **obj})


def validate(config: dict) -> list[str]:
    """Aggregated diagnostics; empty means the config is runnable."""
    diags = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    for key in config:
        if key not in _TOP_LEVEL:
            diags.append(f"unknown field: {key}")
    command = config.get("command")
    if command is None:
        diags.append("missing required field: command")
        return diags
    if command not in _SCHEMAS:
        diags.append(f"unknown command: {command!r} (choose from {sorted(_SCHEMAS)})")
        return diags
    if "seed" in config and not isinstance(config["seed"], int):
        diags.append("seed must be an integer")
    schema = _SCHEMAS[command]
    params = config.get("params", {})
    if not isinstance(params, dict):
        return diags + ["params must be an object"]
    for key, value in params.items():
        if key not in schema:
            diags.append(f"unknown param for {command}: {key}")
            continue
        want, _ = schema[key]
        if want is float and isinstance(value, int):
            continue
        if not isinstance(value, want) or (want is int and isinstance(value, bool)):
            diags.append(f"param {key} must be {want.__name__}")
    if diags:
        return diags

    p = resolved_params(config)
    if command in ("realize", "hankel") and not 0.0 < p["rank_tol"] < 1.0:
        diags.append("rank_tol must lie in (0, 1)")
    if command == "tile-bench":
        if p["d_k"] % p["b_k"] != 0:
            diags.append(f"b_k={p['b_k']} does not divide d_k={p['d_k']}")
        if p["d_v"] % p["b_v"] != 0:
            diags.append(f"b_v={p['b_v']} does not divide d_v={p['d_v']}")
        if p["r"] < 1:
            diags.append("r must be >= 1")
        if not p["alpha"] > 0.0:
            diags.append(f"alpha must be > 0, got {p['alpha']}")
    elif command == "ssm-equiv":
        if not p["chebyshev_alpha"] > 0.0:
            diags.append(f"chebyshev_alpha must be > 0, got {p['chebyshev_alpha']}")
    elif command == "hankel":
        if p["window"] < 0:
            diags.append("window must be >= 1 (0 means full attention)")
    elif command == "compose":
        if p["kind"] not in ("mamba2", "gdn", "gka"):
            diags.append(f"kind must be mamba2 | gdn | gka, got {p['kind']!r}")
        if p["chunks"] < 1 or p["chunk_len"] < 1:
            diags.append("chunks and chunk_len must be >= 1")
    elif command == "spsim":
        for n in p["sim_ranks"]:
            if p["sim_T"] % (2 * n) != 0:
                diags.append(f"sim_T={p['sim_T']} not divisible by 2*{n} (zigzag sharding)")
        if p["n_heads"] % p["n_sp"] != 0:
            diags.append(f"n_heads={p['n_heads']} not divisible by n_sp={p['n_sp']} (a2a)")
    elif command == "perf-model":
        if p["preset"] not in perf_model.PRESETS:
            diags.append(f"preset must be one of {perf_model.PRESETS}")
        if not 0.0 <= p["hybrid_ratio"] < 1.0:
            diags.append("hybrid_ratio must lie in [0, 1)")
    elif command == "select-layers":
        if not 0 <= p["M"] <= 3:
            diags.append("M must lie in [0, 3] (the synthetic stack has 3 layers)")
        if p["window"] < 1:
            diags.append("window must be >= 1")
    return diags


def resolved_params(config: dict) -> dict:
    schema = _SCHEMAS[config["command"]]
    params = dict(config.get("params", {}))
    return {key: params.get(key, default) for key, (_, default) in schema.items()}


def _resolved(config: dict) -> dict:
    return {"command": config["command"], "seed": int(config.get("seed", 42)),
            "params": resolved_params(config)}


# -- command implementations -------------------------------------------


def _run_realize(cfg, rng, bundle):
    p = cfg["params"]
    rows = []
    worst_err = 0.0
    last = None
    for T in p["T_values"]:
        for trial in range(p["trials_per_T"]):
            seq = random_token_sequence(int(T), p["d_k"], scale=p["scale"], rng=rng)
            mix = build_attention_mixer(seq)
            r = realize(mix, rank_tol=p["rank_tol"])
            rep = verify_minimality(r, mix, rank_tol=p["rank_tol"])
            # no cut of the reconstruction exceeds n when the largest does
            # not; only then are the cuts above n counted in a full profile
            recon = np.tril(io_matrix(r))
            rank_violations = 0
            if max_hankel_rank(recon, p["rank_tol"]) > r.n:
                rank_violations = int(np.sum(hankel_profile(recon, p["rank_tol"]).ranks > r.n))
            rows.append((T, trial, r.n, rep.n_min, rep.reconstruction_error,
                         rep.is_minimal, rank_violations))
            worst_err = max(worst_err, rep.reconstruction_error)
            if not rep.is_minimal:
                bundle.violations.append(f"non-minimal realization at T={T} trial={trial}")
            if rep.reconstruction_error > p["tolerance"]:
                bundle.violations.append(
                    f"reconstruction error {rep.reconstruction_error:g} at T={T} trial={trial}")
            if rank_violations:
                bundle.violations.append(f"Hankel rank above n at T={T} trial={trial}")
            last = r
    bundle.csv("realize_report.csv", ["T", "trial", "n", "n_min", "max_abs_error", "is_minimal",
                                      "hankel_rank_violations"], rows)
    if last is not None:
        save_realization(bundle.path("realization.json"), last)


def _run_hankel(cfg, rng, bundle):
    p = cfg["params"]
    seq = random_token_sequence(p["T"], p["d_k"], scale=p["scale"], rng=rng)
    mix = build_swa_mixer(seq, p["window"]) if p["window"] else build_attention_mixer(seq)
    profile = hankel_profile(mix, p["rank_tol"])
    save_tensor(bundle.path("mixer.json"), mix.m, extra={"kind": mix.kind, "n_min": profile.n_min})
    tops = profile.top_singular_values()
    rows = [(k + 1, int(profile.ranks[k]), tops[k]) for k in range(len(profile.ranks))]
    bundle.csv("hankel_ranks.csv", ["cut", "rank", "top_singular_value"], rows)

    if p["swa_trials"] and p["swa_windows"]:
        cap_rows = []
        for trial in range(p["swa_trials"]):
            seq = random_token_sequence(p["T"], p["d_k"], scale=1.0, rng=rng)
            for w in p["swa_windows"]:
                n_min = max_hankel_rank(build_swa_mixer(seq, int(w)), p["rank_tol"])
                cap_rows.append((trial, int(w), n_min, n_min <= int(w)))
                if n_min > int(w):
                    bundle.violations.append(f"SWA rank cap broken: trial={trial} w={w} n_min={n_min}")
        bundle.csv("swa_rank_cap.csv", ["trial", "window", "n_min", "within_cap"], cap_rows)


def _run_ssm_equiv(cfg, rng, bundle):
    p = cfg["params"]
    rows = []
    for trial in range(p["trials"]):
        T = int(rng.integers(2, p["T"] + 1))
        k = rng.standard_normal((T, p["d_k"]))
        v = rng.standard_normal((T, p["d_v"]))
        q = rng.standard_normal((T, p["d_k"]))
        gates = GateTrack(gamma=np.ones(T), beta=rng.uniform(0.1, 1.0, T),
                          lam=np.full(T, p["lam"]))
        diff = gka_recurrence_equivalence(k, v, q, gates)
        sm = ShermanMorrisonGain(p["d_k"], p["lam"])
        info = zero_info_state(p["d_v"], p["d_k"])
        sm_err = 0.0
        for t in range(T):
            g_inc = sm.update(k[t], gates.beta[t])
            info = gka_info_update(info, k[t], v[t], 1.0, gates.beta[t])
            g_dense = gka_gain(info, k[t], gates.beta[t], p["lam"])
            sm_err = max(sm_err, float(np.max(np.abs(g_inc - g_dense))))
        rows.append((trial, T, diff, sm_err))
        if diff > 1e-9:
            bundle.violations.append(f"form equivalence gap {diff:g} at trial {trial}")
        if sm_err > 1e-10:
            bundle.violations.append(f"Sherman-Morrison gap {sm_err:g} at trial {trial}")
    bundle.csv("ssm_equiv.csv", ["trial", "T", "recurrence_vs_info", "sherman_morrison_vs_dense"],
               rows)

    d = p["chebyshev_d"]
    g = rng.standard_normal((d, d))
    h = g @ g.T
    lam = p["chebyshev_alpha"] * float(np.linalg.norm(h))
    q = rng.standard_normal(d)
    a, b = default_spectral_bounds(h, lam)
    _, hist = chebyshev_solve(h, lam, q, p["chebyshev_r"], spectral_bounds=(a, b))
    bound = chebyshev_residual_bound(a, b, p["chebyshev_r"]) * float(np.linalg.norm(q))
    res_rows = [(i + 1, hist[i], bound[i]) for i in range(len(hist))]
    bundle.csv("chebyshev_residuals.csv", ["iteration", "residual", "classical_bound"], res_rows)
    if np.any(hist > 1.1 * bound + 1e-12):
        bundle.violations.append("Chebyshev residual above classical bound")


def _run_compose(cfg, rng, bundle):
    p = cfg["params"]
    kind = SsmKind(p["kind"])
    K, L = p["chunks"], p["chunk_len"]
    T = K * L
    k = rng.standard_normal((T, p["d_k"]))
    v = rng.standard_normal((T, p["d_v"]))
    gamma = np.ones(T) if p["gamma_one"] else rng.uniform(0.6, 1.0, T)
    gates = GateTrack(gamma=gamma, beta=rng.uniform(0.2, 1.0, T), lam=np.full(T, 0.5))
    _, full = ssm_forward(kind, k, v, np.zeros_like(k), gates)

    records = []
    for c in range(K):
        sl = slice(c * L, (c + 1) * L)
        sub = GateTrack(gamma=gates.gamma[sl], beta=gates.beta[sl], lam=gates.lam[sl])
        records.append(composition.run_chunk(kind, k[sl], v[sl], sub))

    rows = []
    caso = composition.caso_compose(records)
    caso_dev = composition.state_deviation(caso, full)
    rows.append((p["kind"], "caso", K, caso_dev))
    if caso_dev > 1e-10:
        bundle.violations.append(f"CASO deviation {caso_dev:g}")

    pic = composition.picaso_r(records)
    rot = composition.picaso_r(records[1:] + records[:1])
    cyc_dev = composition.state_deviation(pic, rot)
    rows.append((p["kind"], "picaso_r_cyclic_invariance", K, cyc_dev))
    if cyc_dev > 1e-12:
        bundle.violations.append(f"PICASO-R cyclic deviation {cyc_dev:g}")
    rows.append((p["kind"], "picaso_r_vs_single_pass", K,
                 composition.state_deviation(pic, full)))

    if kind is SsmKind.GKA:
        merged = composition.gka_compose([r.state for r in records], mode="sum")
        dev = composition.state_deviation(merged, full)
        rows.append((p["kind"], "gka_sum", K, dev))
        if p["gamma_one"] and dev > 1e-13:
            bundle.violations.append(f"additive GKA composition deviation {dev:g}")
    soup = composition.soup_states([r.state for r in records])
    rows.append((p["kind"], "soup_vs_single_pass", K, composition.state_deviation(soup, full)))

    bundle.csv("compose_report.csv", ["kind", "merge_mode", "chunks", "max_abs_deviation"], rows)


def _run_spsim(cfg, rng, bundle):
    p = cfg["params"]
    vol_rows = []
    for l in p["l_values"]:
        for method in ("p2p", "a2a", "usp"):
            per_rank = seqpar.comm_volume(method, int(l), p["d"], p["n_sp"],
                                          state_bytes=p["state_bytes"], d_conv=p["d_conv"],
                                          elem_bytes=p["elem_bytes"], n_heads=p["n_heads"])
            vol_rows.append((method, int(l), per_rank, per_rank * p["n_sp"]))
    bundle.csv("comm_volume.csv", ["method", "l", "bytes_per_rank", "bytes_total"], vol_rows)

    p2p_vols = [r[2] for r in vol_rows if r[0] == "p2p"]
    if len(set(p2p_vols)) != 1:
        bundle.violations.append("p2p volume varies with sequence length")

    T = p["sim_T"]
    k = rng.standard_normal((T, p["sim_d_k"]))
    v = rng.standard_normal((T, p["sim_d_v"]))
    q = rng.standard_normal((T, p["sim_d_k"]))
    gates = GateTrack(gamma=rng.uniform(0.6, 1.0, T), beta=rng.uniform(0.2, 1.0, T),
                      lam=np.full(T, 0.5))
    sim_rows = []
    for kind in (SsmKind.MAMBA2, SsmKind.GDN):
        y_ref, _ = ssm_forward(kind, k, v, q, gates)
        for pattern in ("simple", "zigzag"):
            for n in p["sim_ranks"]:
                plan = seqpar.shard(T, int(n), pattern)
                y, _ = seqpar.p2p_forward(kind, k, v, q, gates, plan,
                                          seqpar.MessageBus(int(n)))
                err = float(np.max(np.abs(y - y_ref)))
                sim_rows.append(("p2p", kind.value, pattern, int(n), err))
                if err > 1e-10:
                    bundle.violations.append(
                        f"p2p mismatch {err:g} kind={kind.value} pattern={pattern} n={n}")

    def gka_layer(x):
        y, _ = ssm_forward(SsmKind.GKA, k, x, q, gates)
        return y

    y_ref = gka_layer(v)
    for pattern in ("simple", "zigzag"):
        for n in p["sim_ranks"]:
            plan = seqpar.shard(T, int(n), pattern)
            y = seqpar.usp_forward(gka_layer, v, plan, seqpar.MessageBus(int(n)))
            err = float(np.max(np.abs(y - y_ref)))
            sim_rows.append(("usp", "gka", pattern, int(n), err))
            if err != 0.0:
                bundle.violations.append(f"usp mismatch {err:g} pattern={pattern} n={n}")

    w = rng.standard_normal(p["d_conv"])
    u = rng.standard_normal((T, 2))
    y_conv_ref = kernels.conv1d_direct(u, w)
    for pattern in ("simple", "zigzag"):
        plan = seqpar.shard(T, p["sim_ranks"][0], pattern)
        y_conv = seqpar.conv1d_sp(u, w, plan, seqpar.MessageBus(p["sim_ranks"][0]))
        err = float(np.max(np.abs(y_conv - y_conv_ref)))
        sim_rows.append(("conv1d", "conv", pattern, p["sim_ranks"][0], err))
        if err != 0.0:
            bundle.violations.append(f"conv1d_sp mismatch {err:g} pattern={pattern}")

    bundle.csv("spsim_equiv.csv", ["method", "kind", "pattern", "n_ranks", "max_abs_err"], sim_rows)

    plans = {pattern: seqpar.plan_to_obj(seqpar.shard(T, p["sim_ranks"][-1], pattern))
             for pattern in ("simple", "zigzag")}
    bundle.json("shard_plans.json", {"plans": plans})


def _run_tile_bench(cfg, rng, bundle):
    p = cfg["params"]
    traffic_rows = []
    for g in p["g_values"]:
        d_k = int(g) * p["b_k"]
        for variant in tiled_decode.VARIANTS:
            rep = tiled_decode.traffic_model(d_k, p["b_k"], variant, p["r"])
            traffic_rows.append((variant, rep.g, rep.r, rep.tiles_loaded,
                                 rep.tiles_stored, rep.skipped_fraction))
    bundle.csv("traffic.csv", ["variant", "g", "r", "loads", "stores", "skipped_fraction"],
               traffic_rows)

    d_k, d_v = p["d_k"], p["d_v"]
    gmat = rng.standard_normal((d_k, d_k))
    state = GkaInfoState(h=(gmat @ gmat.T), u=rng.standard_normal((d_v, d_k)))
    equiv_rows = []
    for step in range(p["steps"]):
        k = rng.standard_normal(d_k)
        v = rng.standard_normal(d_v)
        q = rng.standard_normal(d_k)
        gamma, beta = float(rng.uniform(0.7, 1.0)), float(rng.uniform(0.3, 1.0))
        ref = tiled_decode.decode_step(state, k, v, q, gamma, beta, "reference",
                                       r=p["r"], alpha=p["alpha"], b_k=p["b_k"], b_v=p["b_v"])
        for variant in ("tiled_small_batch", "tiled_large_batch"):
            got = tiled_decode.decode_step(state, k, v, q, gamma, beta, variant,
                                           r=p["r"], alpha=p["alpha"],
                                           b_k=p["b_k"], b_v=p["b_v"])
            diff = float(np.max(np.abs(got.y - ref.y)))
            equiv_rows.append((step, variant, diff))
            if diff > 1e-9:
                bundle.violations.append(f"variant {variant} differs by {diff:g} at step {step}")
        state = ref.state
    bundle.csv("tile_equiv.csv", ["step", "variant", "max_abs_diff_vs_reference"], equiv_rows)


def _run_select_layers(cfg, rng, bundle):
    p = cfg["params"]
    evaluator = make_recall_evaluator(T=p["T"], d=p["d"], seed=int(rng.integers(0, 2 ** 31)))
    table = importance_scores(evaluator, 3, p["window"])
    selected = select_layers(table, p["M"])
    rows = [(i, table.scores[i], table.importances[i]) for i in range(3)]
    bundle.csv("importance.csv", ["layer", "score", "importance"], rows)
    bundle.json("selection.json", {"window": p["window"], "selected": selected})
    expected = sorted(int(i) for i in np.argsort(table.importances, kind="stable")[:p["M"]])
    if selected != expected:
        bundle.violations.append("selection does not follow smallest-importance order")
    _priming_init_checks(cfg, rng, bundle)


def _priming_init_checks(cfg, rng, bundle):
    """Initialization identities and gradient checks for the priming module,
    emitted alongside the layer-selection report."""
    from . import autodiff as ad
    from .priming import agqa_forward, agqa_init, alignment_loss_fn, gate_init, gqa_replicate
    from .stack import ToyHybridStack

    agqa = agqa_init(h_q=8, h_kv=2, d_head=4, rank=8)
    agqa_exact = all(np.array_equal(agqa_forward(agqa, x), gqa_replicate(x, 4))
                     for x in (rng.standard_normal((2, 4)) for _ in range(1000)))

    w_v = rng.standard_normal((2 * 4, 6))
    w_o = rng.standard_normal((6, 8 * 4))
    expanded = np.repeat(w_v.reshape(2, 4, 6), 4, axis=0).reshape(32, 6)
    gate_exact = np.array_equal(gate_init(w_o, w_v, 4, d_head=4), 0.5 * (w_o.T + expanded))

    teacher = ToyHybridStack(("attn", "attn"), d_model=8, d_k=4, seed=31)
    hybrid = ToyHybridStack(("attn", "gdn"), d_model=8, d_k=4, seed=31)
    x = rng.standard_normal((6, 8))
    rel_errs = {}
    for mode in ("e2e", "layerwise"):
        f = alignment_loss_fn(mode, hybrid, teacher, x, "1.gamma_w")
        p0 = hybrid.params["1.gamma_w"]
        analytic = ad.gradient(f, p0)
        h = 1e-5
        numeric = np.zeros_like(p0)
        for i in range(p0.size):
            e = np.zeros_like(p0)
            e[i] = h
            numeric[i] = (float(ad.value(f(p0 + e))) - float(ad.value(f(p0 - e)))) / (2 * h)
        rel_errs[mode] = float(np.linalg.norm(analytic - numeric)
                               / max(np.linalg.norm(numeric), 1e-12))

    rows = [("agqa_init_equals_replication_1000", int(agqa_exact), agqa_exact),
            ("gate_init_entrywise", int(gate_exact), gate_exact),
            ("grad_rel_err_e2e", rel_errs["e2e"], rel_errs["e2e"] < 1e-5),
            ("grad_rel_err_layerwise", rel_errs["layerwise"], rel_errs["layerwise"] < 1e-5)]
    bundle.csv("priming_checks.csv", ["check", "value", "ok"], rows)
    for name, _, ok in rows:
        if not ok:
            bundle.violations.append(f"priming check failed: {name}")


def _run_perf_model(cfg, rng, bundle):
    p = cfg["params"]
    profile = perf_model.make_profile(p["preset"], hybrid_ratio=p["hybrid_ratio"],
                                      ssm_equiv_tokens=p["ssm_equiv_tokens"],
                                      c_mlp=p["c_mlp"])
    rows = []
    for l, ratio, limit in perf_model.sweep_lengths(profile, p["b"], p["lengths"]):
        t_traffic = perf_model.kv_traffic_transformer(p["b"], profile.n_layers, l)
        h_traffic = perf_model.kv_traffic_hybrid(p["b"], profile.n_layers, l, p["hybrid_ratio"])
        rows.append((int(l), ratio, limit, t_traffic, h_traffic))
        if abs(h_traffic - t_traffic) > 1e-9 * t_traffic:
            bundle.violations.append(f"KV traffic conservation broken at l={l}")
    bundle.csv("throughput.csv", ["l", "R", "R_limit", "kv_traffic_transformer",
                                  "kv_traffic_hybrid"], rows)


_RUNNERS = {
    "realize": _run_realize,
    "hankel": _run_hankel,
    "ssm-equiv": _run_ssm_equiv,
    "compose": _run_compose,
    "spsim": _run_spsim,
    "tile-bench": _run_tile_bench,
    "select-layers": _run_select_layers,
    "perf-model": _run_perf_model,
}


def run(config: dict, out_dir: str = "reports") -> ReportBundle:
    """Validate, dispatch, and write report artifacts. Raises ValueError on
    an invalid config; invariant violations are collected, not raised."""
    diags = validate(config)
    if diags:
        raise ValueError("invalid config: " + "; ".join(diags))
    cfg = _resolved(config)
    rng = np.random.default_rng(cfg["seed"])
    bundle = ReportBundle(ensure_dir(config.get("out", out_dir)), cfg)
    start = time.perf_counter()
    _RUNNERS[cfg["command"]](cfg, rng, bundle)
    bundle.elapsed = time.perf_counter() - start
    return bundle


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hybridssm", description=__doc__)
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)

    with open(args.config) as f:
        config = json.load(f)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out

    diags = validate(config)
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return 2
    bundle = run(config)
    for path in bundle.files:
        print(f"wrote {path}")
    for v in bundle.violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    print(f"done in {bundle.elapsed:.2f}s "
          f"({len(bundle.violations)} violation(s))")
    return 1 if bundle.violations else 0


if __name__ == "__main__":
    sys.exit(main())
