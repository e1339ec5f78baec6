"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion is evaluated from a deterministic payload builder (fixed
seeds throughout); the last two tests pin every payload's SHA-256 digest
and rebuild every payload, checking the reruns are byte-identical.
"""

import hashlib
import math

from sfpa import experiments as xp

SEED = 20260809

_cache = {}


def payload(name):
    if name not in _cache:
        _cache[name] = BUILDERS[name]()
    return _cache[name]


def build_c1():
    games = []
    for m in (2, 3, 4, 8):
        for v in (1.0 / m, 2.0 / m, 1.0):
            games.append(xp.verify_andor(m, v, grid_step=1e-3, trials=1_000_000,
                                         seed=SEED + m, mc_points=1))
    return {"games": games}


def build_c2():
    return {"triangle": xp.verify_triangle(points=500),
            "single_minded": [xp.verify_single_minded(k, d)
                              for k, d in ((2, 2), (3, 2), (2, 3), (3, 3))]}


def build_c3():
    return xp.poa_report(16, 0.25, trials=1_000_000, seed=SEED)


def build_c4():
    v = math.sqrt(math.log2(16) / 16)
    return xp.poa_report(16, v, trials=1_000_000, seed=SEED)


def build_c5():
    return xp.grid_game_report(3, trials=1_000_000, seed=SEED)


def build_c6():
    return xp.correspondence_suite(instances=200, seed=0, grid_step=0.05)


def build_c7():
    return {"games": [xp.additive_dynamics_report(3, 3, rounds=100_000,
                                                  seed=SEED + i, grid_step=0.05)
                      for i in range(3)]}


def build_c8():
    return xp.bayes_report(grid_step=0.05)


BUILDERS = {"c1": build_c1, "c2": build_c2, "c3": build_c3, "c4": build_c4,
            "c5": build_c5, "c6": build_c6, "c7": build_c7, "c8": build_c8}


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_c1_andor_equilibrium_verification():
    """m in {2,3,4,8}, v in {1/m, 2/m, 1}: analytic best-response gaps
    <= 1e-6 on the 1e-3 grid; 1e6-trial Monte Carlo utilities inside their
    99% confidence intervals."""
    games = payload("c1")["games"]
    worst_gap = max(max(g["and_gap"], g["or_gap"]) for g in games)
    mc_ok = all(c["ok"] for g in games for c in g["mc_checks"])
    n_checks = sum(len(g["mc_checks"]) for g in games)
    report("C1", worst_gap <= 1e-6 and mc_ok,
           f"max analytic gap {worst_gap:.2e}, {n_checks} MC checks within 99% CI: {mc_ok}")


def test_c2_triangle_and_single_minded():
    """Triangle deviation utility equals -2(y-z)^2 within 1e-12 on a 500x500
    grid; single-minded utility <= 0 with equality only on the diagonal."""
    p = payload("c2")
    tri = p["triangle"]
    ok = tri["max_formula_error"] <= 1e-12 and tri["max_abs_on_diagonal"] <= 1e-12
    detail = [f"triangle err {tri['max_formula_error']:.1e}"]
    for sm in p["single_minded"]:
        ok &= sm["max_utility"] <= 1e-12
        ok &= sm["max_abs_on_diagonal"] <= 1e-12
        ok &= sm["max_off_diagonal"] < -1e-12
        detail.append(f"(k={sm['k']},d={sm['d']}) max {sm['max_utility']:.1e}")
    report("C2", ok, "; ".join(detail))


def test_c3_poa_construction():
    """m=16, v=1/4: equilibrium welfare <= 0.5 = 2/sqrt(m) with CI half-width
    <= 0.005 at 1e6 trials; AND zero-bid frequency 0.75 within 0.005."""
    p = payload("c3")
    ok = (p["welfare"] <= p["welfare_bound_poa"]
          and p["ci99"] <= 0.005
          and abs(p["and_zero_bid_freq"] - p["and_zero_bid_prob"]) <= 0.005
          and p["and_zero_bid_prob"] == 0.75)
    report("C3", ok, f"welfare {p['welfare']:.4f} <= 0.5, ci {p['ci99']:.4f}, "
                     f"atom {p['and_zero_bid_freq']:.4f} vs 0.75")


def test_c4_pos_evidence():
    """m=16, v=sqrt(log2(m)/m): welfare <= 3 sqrt(log2(m)/m) + CI and the
    AND support-sum check passes on the whole support."""
    p = payload("c4")
    ok = (p["welfare"] <= p["welfare_bound_pos"] + p["ci99"]
          and p["support_check_ok"])
    report("C4", ok, f"welfare {p['welfare']:.4f} <= {p['welfare_bound_pos']:.4f}"
                     f" + {p['ci99']:.4f}, support ok {p['support_check_ok']}")


def test_c5_grid_game():
    """l=3: Walrasian search returns the all-prices-1 equilibrium with
    welfare 9 = OPT; the symmetric mixed equilibrium satisfies at most 2
    players in expectation, so the empirical PoA is >= l/2."""
    p = payload("c5")
    side = p["side"]
    ok = (p["walrasian_exists"]
          and max(abs(q - 1.0) for q in p["walrasian_prices"]) <= 1e-9
          and p["opt"] == side * side
          and p["expected_satisfied"] <= 2.0 + p["satisfied_ci99"]
          and p["empirical_poa"] >= side / 2 - 1e-3)
    report("C5", ok, f"prices all 1, opt {p['opt']}, satisfied "
                     f"{p['expected_satisfied']:.4f} <= 2, PoA {p['empirical_poa']:.3f}")


def test_c6_correspondence_suite():
    """200 random lattice instances: Walrasian existence agrees with grid
    pure-Nash existence on every instance, and every found Walrasian
    equilibrium attains the optimal welfare exactly."""
    p = payload("c6")
    ok = p["all_agree"] and p["walrasian_welfare_optimal"]
    report("C6", ok, f"{p['agreements']}/{p['instances']} agree, "
                     f"welfare-optimal {p['walrasian_welfare_optimal']}")


def test_c7_dynamics_bound():
    """Additive games (beta=1, n=3, m=3, step 0.05, T=1e5): measured regret
    within the multiplicative-weights envelope on every run and
    OPT <= 2 E[welfare] + explicit slack on every trace."""
    games = payload("c7")["games"]
    ok = all(g["regret_within_envelope"] for g in games)
    ok &= all(g["welfare"]["bound_beta_ok"] for g in games)
    detail = ", ".join(f"ratio {g['welfare']['ratio']:.3f} "
                       f"(bound {g['welfare']['bound_beta']:.3f})" for g in games)
    report("C7", ok, detail)


def test_c8_bayesian_harness():
    """Degenerate one-type prior reproduces full-information gaps exactly;
    the two-additive-type product prior with exact best responses has gap 0
    and welfare ratio <= 4 + slack."""
    p = payload("c8")
    two = p["two_type"]
    w = two["welfare"]
    slack = 2.0 * (sum(w["avg_gaps"]) + 2 * 1 * w["grid_step"])
    ok = (p["degenerate"]["exactly_equal"]
          and two["bne_found"] and two["max_gap"] == 0.0
          and w["bound_beta_ok"]
          and w["ratio"] <= 4.0 + slack / w["expected_welfare"])
    report("C8", ok, f"degenerate equal, gap {two['max_gap']}, "
                     f"ratio {w['ratio']:.3f} <= 4 + slack")


PINNED = {  # SHA-256 of dumps_canonical(payload(cid)); a change needs a CHANGES.md entry
    "c1": "6834d3e775337ada30f4b492f41dd2fd9597eb1e0147ae92fa768d6028af06fb",
    "c2": "52e3639bdf1e17de36d0e5951d1eaec2f53506209e71b80b2dc8ac624be651f1",
    "c3": "8aa4b08ea1fef62c34896585d416b0d5f02f4115bbc103b2336ebdd670486226",
    "c4": "d82e8182dc1ec02cc5cf964be8d7e3f54a9dab4ce2fb6112281bd080f75f6fd5",
    "c5": "477389f4785c2c4a7ebac8053aa6b223a6556a7530e26fe0a5706d8b0a0c84f3",
    "c6": "7f3b22b6c864ab150ea40fe2826d5f9c2ba865ed530ab370659768580726bd94",
    "c7": "06fc4f1e71d7d585bccec23d6d2ccff1fcfd0fe6329c82e504d8707e10af21de",
    "c8": "4877cccdb5e6fb17bfbec1defcf0e2ae73c84943882d8b170a473910983cc724",
}


def test_c1_to_c8_digests_pinned():
    """Every payload is byte-identical to the recorded one, so a change that
    moves C1-C8 consistently within one process still fails. The payloads
    come from the cache the criteria above filled; nothing is rebuilt."""
    digests = {cid: hashlib.sha256(xp.dumps_canonical(payload(cid)).encode()).hexdigest()
               for cid in BUILDERS}
    assert digests == PINNED


def test_c9_determinism():
    """Criteria 1-8 rerun with the same seeds produce identical payloads."""
    mismatched = []
    for cid, build in BUILDERS.items():
        first = xp.dumps_canonical(payload(cid))
        again = xp.dumps_canonical(build())
        if first != again:
            mismatched.append(cid)
    report("C9", not mismatched, f"reruns identical for {sorted(BUILDERS)}"
           if not mismatched else f"mismatch in {mismatched}")
