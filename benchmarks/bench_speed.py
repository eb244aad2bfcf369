"""Wall-clock benchmarks of the fast group-arithmetic kernels.

Measures each kernel (simultaneous multi-exponentiation, fixed-argument
pairing precomputation, batch modular inversion, the inversion-free
projective Miller loop) and each scheme-level hot path (P2's
decrypt/refresh combines, P1's d_i derivation, the full two-party
decryption protocol) twice on identical inputs: once with the fast
kernels active and once inside
:func:`repro.groups.fastops.reference_mode`, which restores the naive
per-term / per-pairing code paths.  Reports trimmed-median timings and
the speedup ratio per entry, and calibrates the
:meth:`~repro.groups.bilinear.OperationCounter.total_cost` weights from
the measured per-operation costs.

Usage::

    python benchmarks/bench_speed.py                      # default: 64-bit group, lam=128
    python benchmarks/bench_speed.py --smoke              # tiny parameters, fast
    python benchmarks/bench_speed.py --output results/BENCH_speed.json
    python benchmarks/bench_speed.py --smoke --check results/BENCH_speed.json

``--check`` compares *speedup ratios* (machine-invariant, unlike raw
wall-clock) against a baseline JSON: the run fails if any entry's
speedup regressed below 75% of the baseline's.  Speedups shift with the
parameter scale (window sizes, term counts), so the comparison is
scale-matched: a full-size baseline embeds a ``"smoke"`` sub-report, and
``--check`` picks whichever baseline section was measured at the fresh
run's ``(group_bits, lam)``.  CI runs smoke mode against the checked-in
``results/BENCH_speed.json``.

See docs/performance.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

#: Fraction of a baseline speedup a fresh run must retain to pass --check.
REGRESSION_TOLERANCE = 0.75


def trimmed_median(fn, warmup: int, repeats: int) -> float:
    """Median of ``repeats`` timed calls after dropping the fastest and
    slowest sample (and ``warmup`` untimed calls first)."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    if len(samples) > 2:
        samples = samples[1:-1]
    return statistics.median(samples)


def _entry(fast_s: float, naive_s: float) -> dict:
    return {
        "fast_ms": round(fast_s * 1000, 4),
        "naive_ms": round(naive_s * 1000, 4),
        "speedup": round(naive_s / fast_s, 3) if fast_s > 0 else float("inf"),
    }


# ---------------------------------------------------------------------------
# Kernel benchmarks


def bench_kernels(group, params, rng, warmup: int, repeats: int) -> dict:
    from repro.groups import fastops
    from repro.groups.bilinear import G1Element, GTElement
    from repro.groups.pairing import (
        PairingPrecomp,
        final_exponentiation,
        miller_loop,
        miller_loop_affine,
        tate_pairing,
    )
    from repro.math.modular import batch_inv, inv_mod

    p = group.p
    q = group.q
    terms = params.ell + 2  # the combine-step term count
    report = {}

    g_bases = [group.random_g(rng) for _ in range(terms)]
    gt_bases = [group.random_gt(rng) for _ in range(terms)]
    exponents = [rng.randrange(1, p) for _ in range(terms)]

    def g1_fast():
        return G1Element.multiexp(g_bases, exponents)

    def g1_naive():
        with fastops.reference_mode():
            return G1Element.multiexp(g_bases, exponents)

    report["g1_multiexp"] = _entry(
        trimmed_median(g1_fast, warmup, repeats),
        trimmed_median(g1_naive, warmup, repeats),
    )

    def gt_fast():
        return GTElement.multiexp(gt_bases, exponents)

    def gt_naive():
        with fastops.reference_mode():
            return GTElement.multiexp(gt_bases, exponents)

    report["gt_multiexp"] = _entry(
        trimmed_median(gt_fast, warmup, repeats),
        trimmed_median(gt_naive, warmup, repeats),
    )

    # Fixed-argument pairing: one left point against `terms` right points,
    # schedule construction included in the fast timing.
    left = group.random_g(rng).point
    rights = [group.random_g(rng).point for _ in range(terms)]

    def precomp_fast():
        precomp = PairingPrecomp(left, group.params)
        return [precomp.pair_with(right) for right in rights]

    def precomp_naive():
        return [tate_pairing(left, right, group.params) for right in rights]

    report["pairing_precomp"] = _entry(
        trimmed_median(precomp_fast, warmup, repeats),
        trimmed_median(precomp_naive, warmup, repeats),
    )

    def miller_projective():
        return final_exponentiation(miller_loop(left, rights[0], group.params), group.params)

    def miller_affine():
        return final_exponentiation(
            miller_loop_affine(left, rights[0], group.params), group.params
        )

    report["miller_projective"] = _entry(
        trimmed_median(miller_projective, warmup, repeats),
        trimmed_median(miller_affine, warmup, repeats),
    )

    values = [rng.randrange(1, q) for _ in range(256)]

    def inv_batched():
        return batch_inv(values, q)

    def inv_loop():
        return [inv_mod(v, q) for v in values]

    report["batch_inv_256"] = _entry(
        trimmed_median(inv_batched, warmup, repeats),
        trimmed_median(inv_loop, warmup, repeats),
    )
    return report


# ---------------------------------------------------------------------------
# Scheme-level benchmarks


def bench_schemes(scheme, generated, rng, warmup: int, repeats: int) -> dict:
    from repro.core.dlr import combine_decrypt, combine_refresh
    from repro.core.keys import Share2
    from repro.groups import fastops
    from repro.protocol.channel import Channel
    from repro.protocol.device import Device

    group = scheme.group
    report = {}

    # Stage one period's worth of protocol inputs, exactly as run_period
    # produces them, so the combine steps see realistic operands.
    sk_comm = scheme.hpske_g.keygen(rng)
    f_list = [scheme.hpske_g.encrypt(sk_comm, a_i, rng) for a_i in generated.share1.a]
    f_phi = scheme.hpske_g.encrypt(sk_comm, generated.share1.phi, rng)
    ciphertext = scheme.encrypt(generated.public_key, group.random_gt(rng), rng)

    a_precomp = group.pairing_precomp(ciphertext.a)
    d_list = tuple(f_i.pair_with(a_precomp) for f_i in f_list)
    d_phi = f_phi.pair_with(a_precomp)
    d_b = scheme.hpske_gt.encrypt(sk_comm, ciphertext.b, rng)
    fresh_share = Share2(
        tuple(group.random_scalar(rng) for _ in range(scheme.params.ell)), group.p
    )
    f_new = [scheme.hpske_g.encrypt(sk_comm, group.random_g(rng), rng) for _ in f_list]
    f_pairs = tuple(zip(f_list, f_new))

    def dec_combine_fast():
        return combine_decrypt(generated.share2, d_list, d_phi, d_b)

    def dec_combine_naive():
        with fastops.reference_mode():
            return combine_decrypt(generated.share2, d_list, d_phi, d_b)

    report["p2_decrypt_combine"] = _entry(
        trimmed_median(dec_combine_fast, warmup, repeats),
        trimmed_median(dec_combine_naive, warmup, repeats),
    )

    def ref_combine_fast():
        return combine_refresh(generated.share2, fresh_share, f_pairs, f_phi)

    def ref_combine_naive():
        with fastops.reference_mode():
            return combine_refresh(generated.share2, fresh_share, f_pairs, f_phi)

    report["p2_refresh_combine"] = _entry(
        trimmed_median(ref_combine_fast, warmup, repeats),
        trimmed_median(ref_combine_naive, warmup, repeats),
    )

    # P1's d_i derivation: the fixed-argument pairing hot path.
    def derive_fast():
        precomp = group.pairing_precomp(ciphertext.a)
        return [f_i.pair_with(precomp) for f_i in f_list] + [f_phi.pair_with(precomp)]

    def derive_naive():
        with fastops.reference_mode():
            precomp = group.pairing_precomp(ciphertext.a)
            return [f_i.pair_with(precomp) for f_i in f_list] + [
                f_phi.pair_with(precomp)
            ]

    report["p1_derive_d"] = _entry(
        trimmed_median(derive_fast, warmup, repeats),
        trimmed_median(derive_naive, warmup, repeats),
    )

    # The full two-party decryption protocol, end to end.
    def installed():
        device_rng = random.Random(11)
        p1 = Device("P1", group, device_rng)
        p2 = Device("P2", group, device_rng)
        scheme.install(p1, p2, generated.share1, generated.share2)
        return p1, p2, Channel()

    p1, p2, channel = installed()

    def full_decrypt_fast():
        return scheme.decrypt_protocol(p1, p2, channel, ciphertext)

    def full_decrypt_naive():
        with fastops.reference_mode():
            return scheme.decrypt_protocol(p1, p2, channel, ciphertext)

    report["p2_full_decrypt"] = _entry(
        trimmed_median(full_decrypt_fast, warmup, repeats),
        trimmed_median(full_decrypt_naive, warmup, repeats),
    )
    return report


# ---------------------------------------------------------------------------
# Batch benchmarks


def bench_batch(scheme, generated, rng, warmup: int, repeats: int) -> dict:
    """Amortized batch APIs vs the single-op path.

    ``decrypt_amortization_bN`` compares the *per-ciphertext* wall-clock
    of a batch-of-N period (:meth:`~repro.core.dlr.DLR.run_period_multi`:
    N decrypts sharing one refresh, one precomp schedule, one batched
    multiexp window decision) against one single-ciphertext period --
    the ratio is the amortization factor and is machine-invariant.
    """
    from repro.protocol.channel import Channel
    from repro.protocol.device import Device

    group = scheme.group
    report = {}

    def installed(seed):
        device_rng = random.Random(seed)
        p1 = Device("P1", group, device_rng)
        p2 = Device("P2", group, device_rng)
        scheme.install(p1, p2, generated.share1, generated.share2)
        return p1, p2, Channel()

    messages = [group.random_gt(rng) for _ in range(16)]
    ciphertexts = scheme.encrypt_batch(generated.public_key, messages, rng)

    # Repeated calls stay healthy: every period refreshes the shares to a
    # fresh valid generation, and the original public key keeps matching.
    p1s, p2s, channel_s = installed(11)

    def single_period():
        return scheme.run_period(p1s, p2s, channel_s, ciphertexts[0])

    t_single = trimmed_median(single_period, warmup, repeats)

    for batch in (4, 16):
        p1b, p2b, channel_b = installed(batch)
        subset = ciphertexts[:batch]

        def batched(subset=subset, p1b=p1b, p2b=p2b, channel_b=channel_b):
            return scheme.run_period_multi(p1b, p2b, channel_b, subset)

        t_batch = trimmed_median(batched, warmup, repeats)
        report[f"decrypt_amortization_b{batch}"] = _entry(t_batch / batch, t_single)
    return report


# ---------------------------------------------------------------------------
# Cost-weight calibration


def calibrate_weights(group, rng, warmup: int, repeats: int) -> dict:
    """Measure each counted operation and express its cost in units of
    one ``G`` multiplication (the ``total_cost`` weight convention).

    Multiexp weights are per folded term; the precomp-pairing weight
    amortizes the schedule construction over the ``ell + 1`` evaluations
    a decryption shares it across.
    """
    from repro.groups.bilinear import G1Element, GTElement
    from repro.groups.pairing import PairingPrecomp, tate_pairing

    p = group.p
    u, v = group.random_g(rng), group.random_g(rng)
    zu, zv = group.random_gt(rng), group.random_gt(rng)
    k = rng.randrange(1, p)
    terms = 28
    g_bases = [group.random_g(rng) for _ in range(terms)]
    gt_bases = [group.random_gt(rng) for _ in range(terms)]
    exps = [rng.randrange(1, p) for _ in range(terms)]
    left = group.random_g(rng).point
    rights = [group.random_g(rng).point for _ in range(terms)]

    timings = {
        "g_mul": trimmed_median(lambda: u * v, warmup, repeats),
        "g_exp": trimmed_median(lambda: u ** k, warmup, repeats),
        "gt_mul": trimmed_median(lambda: zu * zv, warmup, repeats),
        "gt_exp": trimmed_median(lambda: zu ** k, warmup, repeats),
        "g_multiexp": trimmed_median(lambda: G1Element.multiexp(g_bases, exps), warmup, repeats)
        / terms,
        "gt_multiexp": trimmed_median(
            lambda: GTElement.multiexp(gt_bases, exps), warmup, repeats
        )
        / terms,
        "pairings": trimmed_median(
            lambda: tate_pairing(left, rights[0], group.params), warmup, repeats
        ),
    }

    def precomp_batch():
        precomp = PairingPrecomp(left, group.params)
        return [precomp.pair_with(right) for right in rights]

    timings["pairings_precomp"] = trimmed_median(precomp_batch, warmup, repeats) / terms

    unit = timings["g_mul"]
    weights = {
        name: max(1, round(seconds / unit)) for name, seconds in timings.items()
    }
    weights["g_samples"] = 0
    weights["gt_samples"] = 0
    return weights


# ---------------------------------------------------------------------------
# Report / regression gate


def speed_report(
    group_bits: int = 64, lam: int = 128, seed: int = 7, warmup: int = 1, repeats: int = 5
) -> dict:
    from repro.core.dlr import DLR
    from repro.core.params import DLRParams
    from repro.groups import preset_group

    group = preset_group(group_bits)
    params = DLRParams(group=group, lam=lam)
    scheme = DLR(params)
    rng = random.Random(seed)
    generated = scheme.generate(rng)

    import os

    report = {
        "group_bits": group_bits,
        "lam": lam,
        "ell": params.ell,
        "kappa": params.kappa,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "timing": {"warmup": warmup, "repeats": repeats, "estimator": "trimmed median"},
        "kernels": bench_kernels(group, params, rng, warmup, repeats),
        "schemes": bench_schemes(scheme, generated, rng, warmup, repeats),
        "batch": bench_batch(scheme, generated, rng, warmup, repeats),
        "cost_weights": calibrate_weights(group, rng, warmup, repeats),
    }
    return report


def _speedups(report: dict) -> dict[str, float]:
    ratios = {}
    for section in ("kernels", "schemes", "batch"):
        for name, entry in report.get(section, {}).items():
            ratios[f"{section}.{name}"] = entry["speedup"]
    return ratios


def _scale_matched_baseline(report: dict, baseline: dict) -> dict | None:
    """The baseline section measured at the fresh report's scale.

    Speedup ratios depend on the parameter scale (window sizes and table
    amortization shift with exponent width and term count), so a smoke
    run must only be compared against smoke-scale baseline numbers.
    """
    scale = (report.get("group_bits"), report.get("lam"))
    if (baseline.get("group_bits"), baseline.get("lam")) == scale:
        return baseline
    smoke = baseline.get("smoke")
    if smoke and (smoke.get("group_bits"), smoke.get("lam")) == scale:
        return smoke
    return None


def check_regressions(report: dict, baseline: dict) -> list[str]:
    """Compare speedup ratios (machine-invariant) against the baseline.

    Returns failure messages for every entry whose speedup fell below
    ``REGRESSION_TOLERANCE`` of the baseline's.  Entries present in only
    one report are ignored (additions/removals are not regressions).
    """
    matched = _scale_matched_baseline(report, baseline)
    if matched is None:
        return [
            f"baseline has no section at group_bits={report.get('group_bits')} "
            f"lam={report.get('lam')} -- regenerate it with "
            "`python benchmarks/bench_speed.py --output results/BENCH_speed.json`"
        ]
    fresh = _speedups(report)
    base = _speedups(matched)
    failures = []
    for name in sorted(fresh.keys() & base.keys()):
        floor = REGRESSION_TOLERANCE * base[name]
        if fresh[name] < floor:
            failures.append(
                f"{name}: speedup {fresh[name]:.2f}x < {floor:.2f}x "
                f"(75% of baseline {base[name]:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny parameters (32-bit group, lam=32) and fewer repeats",
    )
    parser.add_argument("--group-bits", type=int, default=None)
    parser.add_argument("--lam", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="fail if any speedup regressed below 75%% of this baseline JSON",
    )
    args = parser.parse_args(argv)

    group_bits = args.group_bits or (32 if args.smoke else 64)
    lam = args.lam or (32 if args.smoke else 128)
    repeats = args.repeats or (3 if args.smoke else 5)

    report = speed_report(group_bits=group_bits, lam=lam, repeats=repeats)
    if not args.smoke and (group_bits, lam) != (32, 32):
        # Full-size baselines carry a smoke-scale sub-report so CI's
        # smoke runs have scale-matched numbers to gate against.
        report["smoke"] = speed_report(group_bits=32, lam=32, repeats=3)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_regressions(report, baseline)
        if failures:
            sys.stderr.write("speed regression gate FAILED:\n")
            for failure in failures:
                sys.stderr.write(f"  {failure}\n")
            return 1
        sys.stderr.write(
            f"speed regression gate passed ({len(_speedups(report))} entries)\n"
        )

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
