"""Acceptance gate: one test per criterion, at the stated tolerances.

Each criterion maps onto exactly one named experiment with its default
configuration; heavy experiment results are computed once per module and
shared.  Every test prints a single PASS/FAIL line.
"""

import time

from alphacurvelets import cli

_CACHE: dict = {}


def run_cached(experiment: str, overrides: dict | None = None):
    key = (experiment, tuple(sorted((overrides or {}).items())))
    if key not in _CACHE:
        cfg = cli.resolve_config(experiment, None, overrides or {})
        t0 = time.time()
        ok, results, rows = cli.RUNNERS[experiment](cfg)()
        _CACHE[key] = (ok, results, rows, time.time() - t0)
    return _CACHE[key]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_partition_of_unity():
    ok, results, rows, dt = run_cached("verify-frame")
    worst = max(r["partition_dev"] for r in rows)
    good = worst <= 1e-12
    report("C1 partition of unity", good, f"max dev {worst:.2e} over alphas, 512^2, {dt:.0f}s total")
    assert good
    assert dt < 50  # budget: under 10 s per configuration


def test_c02_tight_frame():
    ok, results, rows, dt = run_cached("verify-frame")
    par = max(r["parseval_dev"] for r in rows)
    rec = max(r["reconstruction_err"] for r in rows)
    good = par <= 1e-10 and rec <= 1e-10
    report("C2 tight frame", good, f"parseval {par:.2e}, reconstruction {rec:.2e}")
    assert good
    assert dt < 40  # shared verify-frame run stays within the 30 s budget


def test_c03_oracle_equivalence():
    ok, results, rows, dt = run_cached("verify-frame")
    dev = max(r["oracle_dev"] for r in rows)
    good = dev <= 1e-9
    report("C3 folding vs direct summation", good, f"max relative deviation {dev:.2e}")
    assert good


def test_c04_bessel_oracles():
    ok, results, rows, dt = run_cached("bessel-check")
    detail = (
        f"closed forms {results['closed_form_max_dev']:.2e}, "
        f"remainder sup {results['remainder_sup']:.4f} "
        f"(stability {results['remainder_stability']:.2e})"
    )
    report("C4 Bessel closed forms and remainder", ok, detail)
    assert ok
    assert results["closed_form_max_dev"] <= 1e-12
    assert results["remainder_stability"] <= 0.01


def test_c05_wedge_energy_law():
    ok, results, rows, dt = run_cached("wedge-energy")
    slopes = {s["alpha"]: round(s["slope"], 3) for s in results["summaries"]}
    ratios = [r["ratio"] for r in results["digital"]["ratios"]]
    detail = f"slopes {slopes}, digital/analytic in [{min(ratios):.3f}, {max(ratios):.3f}]"
    report("C5 wedge-energy decay law", ok, detail)
    assert ok
    for s in results["summaries"]:
        assert abs(s["slope"] - s["target"]) <= 0.2
    assert all(0.9 <= r <= 1.1 for r in ratios)


def test_c06_curved_edge_lower_bound_and_rate():
    ok_lb, res_lb, _, dt1 = run_cached("disc-lower-bound")
    ok_rate, res_rate, _, dt2 = run_cached("disc-rate")
    detail = (
        f"tail slopes {[round(s['slope'], 3) for s in res_lb['summaries']]} "
        f"vs targets {[round(s['target'], 3) for s in res_lb['summaries']]}; "
        f"threshold slope {res_rate['slope']:.3f} in {res_rate['band']}; "
        f"{dt1 + dt2:.0f}s"
    )
    good = ok_lb and ok_rate
    report("C6 curved-edge bound and rate", good, detail)
    assert dt1 + dt2 < 300  # budget: under five minutes
    assert ok_lb
    for s in res_lb["summaries"]:
        assert abs(s["slope"] - s["target"]) <= 0.3
    assert ok_rate
    assert -2.4 <= res_rate["slope"] <= -1.7


def test_c07_thresholding_cannot_beat_bound():
    ok, results, rows, dt = run_cached("disc-rate", {"alpha": 1.0 / 3.0})
    slope = results["slope"]
    good = slope >= -1.75
    report("C7 thresholding floor at alpha=1/3", good, f"slope {slope:.3f} >= -1.75")
    assert good


def test_c08_straight_edge_rates():
    ok, results, rows, dt = run_cached("straight-edge-rate")
    detail = (
        f"half-space a=0.5: {results['edge_alpha_half']['slope']:.3f} in {results['band_alpha_half']}; "
        f"a=0.25: {results['edge_alpha_quarter']['slope']:.3f} <= -1.8; "
        f"bump: {results['bump_alpha_half']['slope']:.3f} <= -1.9; {dt:.0f}s"
    )
    report("C8 straight-edge rates", ok, detail)
    assert ok
    b = results["band_alpha_half"]
    assert b[0] <= results["edge_alpha_half"]["slope"] <= b[1]
    assert results["edge_alpha_quarter"]["slope"] <= -1.8
    assert results["bump_alpha_half"]["slope"] <= -1.9


def test_c09_apriori_coefficient_decay():
    ok, results, rows, dt = run_cached("apriori-decay")
    detail = "; ".join(
        f"a={s['alpha']}: max-coeff {s['max_coeff_slope']:.3f} (target {s['target']}), "
        f"atom L1 {s['atom_l1_slope']:.3f}"
        for s in results["summaries"]
    )
    report("C9 a-priori decay", ok, detail)
    assert ok
    for s in results["summaries"]:
        # coefficient-size law is an upper bound: measured decay may be
        # faster for strongly directional tiles, never slower
        assert s["max_coeff_slope"] <= s["target"] + 0.15
        assert abs(s["atom_l1_slope"] - s["target"]) <= 0.25
    sat = {s["alpha"]: s["saturates_two_sided"] for s in results["summaries"]}
    assert sat[0.5]  # parabolic scaling saturates the bound on the disc


def test_c10_phase_space_consistency():
    ok, results, rows, dt = run_cached("molecule-distance")
    detail = (
        f"self-distance {results['self_distance']}, growth "
        f"({results['growth_a']:.4f}, {results['growth_b']:.4f}) at final doubling"
    )
    report("C10 phase-space distance and consistency", ok, detail)
    assert ok
    assert results["self_distance"] == 1.0
    assert results["growth_a"] < 0.05 and results["growth_b"] < 0.05


def test_c11_generator_support():
    ok, results, rows, dt = run_cached("generator-decay")
    sups = [r["sup"] for r in results["rows"]]
    report(
        "C11 generator support",
        ok,
        f"{len(results['rows'])} scales, exact zeros outside supports, sup range "
        f"[{min(sups):.6f}, {max(sups):.6f}]",
    )
    assert ok
    for r in results["rows"]:
        assert r["support_ok"] and r["inner_zero_ok"]
        assert r["sup"] <= 1.0 + 1e-12
