"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Statistical checks use fixed seeds, so outcomes are reproducible.
"""

import math
import time

import numpy as np

from smoothol.adversaries import HiddenMuThresholdAdversary, tilted_smooth_probs
from smoothol.bandit import run_bandit_experiment
from smoothol.core import (
    FiniteMeasure,
    GroundSet,
    TableClass,
    ThresholdClass,
    UniformIntervalMeasure,
    linear_loss,
    make_rng,
    scaled_square_loss,
)
from smoothol.coupling import CouplingConfig, concentrated_p, validate_coupling
from smoothol.ftpl import (
    FtplLearner,
    draw_perturbation,
    ftpl_select_classification,
    ftpl_select_dual,
    ftpl_select_single,
    schedule,
)
from smoothol.harness import ExperimentConfig, run_experiment, run_seed
from smoothol.oracle import IDENTITY, MAIN, ErmOracle, ErmQuery
from smoothol.relaxation import (
    RelaxState,
    draw_playout,
    predict_general,
    predict_linear,
    three_point_min,
)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. coupling correctness
# ---------------------------------------------------------------------------

def test_criterion_01_coupling_correctness():
    t0 = time.perf_counter()
    trials = 100_000
    mu = FiniteMeasure.uniform(GroundSet(size=10))
    ok = True
    worst = ""
    for i, sigma in enumerate((0.3, 0.5, 1.0)):
        p = mu.probs.copy() if sigma == 1.0 else tilted_smooth_probs(mu.probs, sigma)
        for j, k in enumerate((1, 3, 10)):
            cfg = CouplingConfig(mu.probs, p, sigma, k)
            report = validate_coupling(cfg, trials, make_rng(10 + i, j))
            bound = (1 - sigma) ** k
            slack = 3 * math.sqrt(bound / trials)
            good = (report.x_marginal_pvalue > 0.01
                    and report.z_marginal_pvalue > 0.01
                    and report.miss_rate <= bound + slack)
            if not good:
                ok = False
                worst = (f"sigma={sigma} k={k} px={report.x_marginal_pvalue:.3f} "
                         f"pz={report.z_marginal_pvalue:.3f} miss={report.miss_rate:.4f}")
    elapsed = time.perf_counter() - t0
    _report(1, "coupling marginals and miss-rate bound", ok and elapsed < 30,
            worst or f"9 configs x {trials} trials, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. coupling tightness
# ---------------------------------------------------------------------------

def test_criterion_02_coupling_tightness():
    t0 = time.perf_counter()
    trials = 100_000
    mu = FiniteMeasure.uniform(GroundSet(size=10))
    ok = True
    for i, (sigma, k) in enumerate(((0.5, 2), (0.3, 3), (0.5, 1))):
        p = concentrated_p(mu, sigma)
        report = validate_coupling(CouplingConfig(mu.probs, p, sigma, k),
                                   trials, make_rng(20, i))
        bound = (1 - sigma) ** k
        slack = 3 * math.sqrt(bound / trials)
        ok = ok and (report.miss_rate >= bound - slack)
    elapsed = time.perf_counter() - t0
    _report(2, "concentrated construction attains the miss-rate bound",
            ok and elapsed < 10, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. ERM oracle soundness
# ---------------------------------------------------------------------------

def test_criterion_03_erm_soundness():
    t0 = time.perf_counter()
    rng = make_rng(30, 0)
    classes = []
    for _ in range(8):
        h = int(rng.integers(2, 257))
        n = int(rng.integers(4, 24))
        values = np.round(rng.uniform(-1, 1, size=(h, n)), 6)
        classes.append(TableClass(values, ground=GroundSet.grid(n)))
    loss = linear_loss()
    oracles = [ErmOracle(k, loss) for k in classes]
    ok = True
    for q in range(10_000):
        pick = q % len(classes)
        klass, oracle = classes[pick], oracles[pick]
        query = ErmQuery()
        for selector in (MAIN, IDENTITY):
            m = int(rng.integers(0, 16))
            if m and rng.random() < 0.8:
                ids = rng.integers(0, klass.ground.size, size=m)
                query.add_block(selector, klass.ground.block(ids),
                                rng.uniform(-1, 1, m), rng.normal(size=m) * 4.0)
        zeta = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.01, 2.0))
        if zeta == 0.0:
            res = oracle.exact(query)
        else:
            res = oracle.approximate(query, zeta, rng)
        objs = oracle.objective_vector(query)
        bound = objs.min() + zeta * query.total_abs_weight()
        if not res.objective_value <= bound + 1e-12:
            ok = False
            break
        if zeta == 0.0 and res.hypothesis_index != int(np.argmin(objs)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(3, "weighted ERM inequality on 10^4 fuzzed queries",
            ok and elapsed < 20, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. linear-loss relaxation
# ---------------------------------------------------------------------------

def test_criterion_04_linear_loss_relaxation():
    t0 = time.perf_counter()
    loss = linear_loss()
    L = loss.lipschitz_L
    grid = np.linspace(-1.0, 1.0, 2_000_001)
    rounds = 0
    worst_gap, worst_diff, calls_ok = 0.0, 0.0, True
    for seed in range(10):
        rng = make_rng(40 + seed, 0)
        ground = GroundSet.grid(24)
        klass = TableClass(np.round(rng.uniform(-1, 1, (8, 24)), 6), ground=ground)
        mu = FiniteMeasure.uniform(ground)
        oracle = ErmOracle(klass, loss)
        T = 20
        state = RelaxState(loss, T, 0.5)
        hist_ids, hist_ys = [], []
        for t in range(1, T + 1):
            playout = draw_playout(mu, T - t, state.k, rng)
            x = mu.sample_point(rng)
            before = oracle.calls
            yhat = predict_linear(state, playout, x, oracle)
            calls_ok = calls_ok and (oracle.calls - before == 2)
            a_plus, a_minus = state.last_branch_values
            worst_gap = max(worst_gap, abs(a_plus - a_minus))
            # independent recomputation of the two branch suprema
            vals = klass.values
            playout_term = 6 * L * (playout.signs.astype(float).ravel()
                                    @ vals[:, playout.contexts.ids].T)
            hist = np.zeros(len(klass))
            if hist_ids:
                hist = loss.evaluate_array(vals[:, hist_ids],
                                           np.array(hist_ys)[None, :]).sum(axis=1)
            ap = float(np.max(playout_term - hist - loss.evaluate_array(vals[:, x.id], 1.0)))
            am = float(np.max(playout_term - hist - loss.evaluate_array(vals[:, x.id], -1.0)))
            g = np.maximum((1 - grid) / 2 + ap, (1 + grid) / 2 + am)
            worst_diff = max(worst_diff, abs(yhat - float(grid[np.argmin(g)])))
            y = float(rng.choice([-1.0, 1.0]))
            hist_ids.append(x.id)
            hist_ys.append(y)
            state.observe(x, y, oracle)
            rounds += 1
    elapsed = time.perf_counter() - t0
    ok = (rounds == 200 and worst_gap <= 1.0 + 1e-9 and worst_diff <= 1e-6
          and calls_ok and elapsed < 60)
    _report(4, "two-call linear-loss rule matches the 1e-6-grid min-max",
            ok, f"max|a+-a-|={worst_gap:.3f}, max diff={worst_diff:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. three-point search
# ---------------------------------------------------------------------------

def test_criterion_05_three_point_search():
    t0 = time.perf_counter()
    rng = make_rng(50, 0)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 4097))
        curv = rng.exponential(1.0, size=max(m - 2, 0))
        curv[rng.random(curv.shape) < 0.3] = 0.0
        slopes = float(rng.normal() * 2) + np.concatenate(([0.0], np.cumsum(curv)))
        vals = np.round(np.concatenate(([0.0], np.cumsum(slopes[: m - 1]))), 12)
        calls = 0

        def oracle(i):
            nonlocal calls
            calls += 1
            return float(vals[i])

        idx = three_point_min(oracle, np.arange(m, dtype=float))
        if idx != int(np.argmin(vals)) or calls > 3 * math.ceil(math.log2(m)) + 3:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(5, "exact convex grid argmin within the evaluation budget",
            ok and elapsed < 10, f"10^3 functions, grids to 4096, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. general relaxation vs dense grid
# ---------------------------------------------------------------------------

def test_criterion_06_general_relaxation_dense_grid():
    t0 = time.perf_counter()
    loss = scaled_square_loss()
    L = loss.lipschitz_L
    T = 16
    delta = 1.0 / (L * math.sqrt(T))
    dense = np.linspace(-1.0, 1.0, 2001)
    worst_diff, budget_ok, rounds = 0.0, True, 0
    for seed in range(5):
        rng = make_rng(60 + seed, 0)
        ground = GroundSet.grid(12)
        klass = TableClass(np.round(rng.uniform(-1, 1, (5, 12)), 6), ground=ground)
        mu = FiniteMeasure.uniform(ground)
        oracle = ErmOracle(klass, loss)
        state = RelaxState(loss, T, 0.5)
        S = len(state.grid)
        cap = S + 3 * math.ceil(math.log2(S)) * S
        hist_ids, hist_ys = [], []
        for t in range(1, 11):
            playout = draw_playout(mu, T - t, state.k, rng)
            x = mu.sample_point(rng)
            before = oracle.calls
            yhat = predict_general(state, playout, x, oracle)
            budget_ok = budget_ok and (oracle.calls - before <= cap)
            vals = klass.values
            playout_term = 6 * L * (playout.signs.astype(float).ravel()
                                    @ vals[:, playout.contexts.ids].T)
            hist = np.zeros(len(klass))
            if hist_ids:
                hist = loss.evaluate_array(vals[:, hist_ids],
                                           np.array(hist_ys)[None, :]).sum(axis=1)
            phi = np.array([
                np.max(playout_term - hist - loss.evaluate_array(vals[:, x.id], yy))
                for yy in dense
            ])
            outer = loss.evaluate_array(dense[:, None], dense[None, :]) + phi[None, :]
            ystar = float(dense[np.argmin(outer.max(axis=1))])
            worst_diff = max(worst_diff, abs(yhat - ystar))
            y = float(rng.uniform(-1, 1))
            hist_ids.append(x.id)
            hist_ys.append(y)
            state.observe(x, y, oracle)
            rounds += 1
    elapsed = time.perf_counter() - t0
    ok = rounds == 50 and worst_diff <= 2 * delta and budget_ok and elapsed < 120
    _report(6, "grid min-max tracks the dense-grid solution within 2*delta",
            ok, f"max diff={worst_diff:.3f} vs {2*delta:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. FTPL exactness
# ---------------------------------------------------------------------------

def test_criterion_07_ftpl_exactness():
    t0 = time.perf_counter()
    loss = linear_loss()
    ok = True
    for variant in ("classification", "dual", "single"):
        rounds_done = 0
        for seed in range(4):
            rng = make_rng(70 + seed, 0)
            ground = GroundSet.grid(32)
            if variant == "classification":
                values = rng.choice([-1.0, 1.0], size=(16, 32))
            else:
                values = np.round(rng.uniform(-1, 1, (16, 32)), 6)
            klass = TableClass(values, ground=ground)
            mu = FiniteMeasure.uniform(ground)
            oracle = ErmOracle(klass, loss)
            T = 250
            sched = schedule(T, 0.5, L=loss.lipschitz_L, variant=variant)
            cumulative = np.zeros(len(klass))
            for t in range(T):
                before = oracle.calls
                if variant == "classification":
                    pert = draw_perturbation(mu, sched.n, rng)
                    idx = ftpl_select_classification(pert, sched.eta, oracle)
                    direct = cumulative + sched.eta * pert.scale * (
                        values[:, pert.contexts.ids] @ pert.coeffs)
                elif variant == "dual":
                    pert_m = draw_perturbation(mu, sched.m, rng)
                    pert_n = draw_perturbation(mu, sched.n, rng, normalization="none",
                                               eps=sched.epsilon)
                    idx = ftpl_select_dual(pert_m, pert_n, sched.eta, oracle)
                    direct = (cumulative
                              + sched.eta * pert_m.scale * (
                                  values[:, pert_m.contexts.ids] @ pert_m.coeffs)
                              + loss.evaluate_array(values[:, pert_n.contexts.ids],
                                                    pert_n.labels[None, :]) @ pert_n.coeffs)
                else:
                    pert = draw_perturbation(mu, sched.n, rng, normalization="none",
                                             eps=sched.epsilon)
                    scale = sched.eta / math.sqrt(sched.n)
                    idx = ftpl_select_single(pert, scale, oracle)
                    direct = cumulative + scale * (
                        loss.evaluate_array(values[:, pert.contexts.ids],
                                            pert.labels[None, :]) @ pert.coeffs)
                if oracle.calls - before != 1 or idx != int(np.argmin(direct)):
                    ok = False
                    break
                x = mu.sample_point(rng)
                y = float(rng.choice([-1.0, 1.0]))
                oracle.extend_prefix(x, y)
                cumulative += loss.evaluate_array(values[:, x.id], y)
                rounds_done += 1
            if not ok:
                break
        ok = ok and rounds_done == 1000
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(7, "every perturbed-leader pick equals exhaustive recomputation",
            ok and elapsed < 30, f"10^3 rounds per variant, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. perturbation covariance
# ---------------------------------------------------------------------------

def test_criterion_08_perturbation_covariance():
    t0 = time.perf_counter()
    rng = make_rng(80, 0)
    ground = GroundSet.grid(20)
    klass = TableClass(np.round(rng.uniform(-1, 1, (8, 20)), 6), ground=ground)
    mu = FiniteMeasure.uniform(ground)
    n, draws = 64, 10_000
    anchors = mu.sample_block(rng, n)
    f_vals = klass.evaluate_block(anchors)  # (8, n)
    target = f_vals @ f_vals.T / n
    gammas = rng.standard_normal((draws, n))
    omegas = gammas @ f_vals.T / math.sqrt(n)
    empirical = omegas.T @ omegas / draws
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / draws)
    ok = bool(np.all(np.abs(empirical - target) <= 4 * se))
    elapsed = time.perf_counter() - t0
    _report(8, "empirical perturbation covariance matches the anchor kernel",
            ok and elapsed < 20, f"max dev={np.max(np.abs(empirical-target)/se):.2f} se, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. regret sublinearity
# ---------------------------------------------------------------------------

def _sublinearity_config(learner: str, T: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict({
        "learner": {"name": learner},
        "adversary": {"kind": "iid", "p": "tilted",
                      "labels": {"rule": "noisy_comparator", "threshold": 0.5,
                                 "flip_prob": 0.1}},
        "class": {"type": "thresholds", "m": 64},
        "loss": "linear",
        "T": T, "sigma": 0.2, "seeds": [0],
        "ground": {"type": "grid", "atoms": 256},
    })


def test_criterion_09_regret_sublinearity():
    t0 = time.perf_counter()
    ok = True
    details = []
    for learner in ("relax-linear", "ftpl-cls"):
        decreasing = 0
        bound_ok = True
        for seed in range(10):
            short = run_seed(_sublinearity_config(learner, 200), seed)
            long = run_seed(_sublinearity_config(learner, 2000), seed)
            if long.final_regret / 2000 < short.final_regret / 200:
                decreasing += 1
            gap = long.comparator_range[1] - long.comparator_range[0]
            if not long.final_regret < 0.5 * gap:
                bound_ok = False
        details.append(f"{learner}: {decreasing}/10 decreasing")
        ok = ok and decreasing >= 8 and bound_ok
    elapsed = time.perf_counter() - t0
    _report(9, "average regret shrinks with the horizon for both learners",
            ok and elapsed < 600, f"{'; '.join(details)}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. hidden-measure hardness
# ---------------------------------------------------------------------------

def _run_hidden_mu(learner_name: str, seed: int, T: int):
    sigma = 1.0 / T
    mu = UniformIntervalMeasure()
    loss = linear_loss()
    klass = ThresholdClass.grid(64)
    oracle = ErmOracle(klass, loss)
    adversary = HiddenMuThresholdAdversary(T, make_rng(seed, 0))
    if learner_name == "relax-linear":
        from smoothol.relaxation import RelaxLinearLearner

        learner = RelaxLinearLearner(klass, loss, mu, T, sigma, oracle,
                                     make_rng(seed, 1))
    else:
        sched = schedule(T, sigma, L=loss.lipschitz_L, variant="classification")
        learner = FtplLearner("classification", klass, loss, mu, sched, oracle,
                              make_rng(seed, 1))
    mistakes = 0
    for _ in range(T):
        if learner.proper:
            learner.select()
        x, y = adversary.next_round()
        yhat = learner.predict(x)
        mistakes += (1.0 if yhat >= 0 else -1.0) != y
        learner.observe(x, y)
    theta = adversary.realizable_threshold()
    comparator = sum((1.0 if c.coordinate >= theta else -1.0) != y
                     for c, y, _ in adversary.history)
    return mistakes, comparator


def test_criterion_10_hidden_mu_hardness():
    t0 = time.perf_counter()
    T, seeds = 40, 200
    ok = True
    details = []
    for learner_name in ("relax-linear", "ftpl-cls"):
        mistakes = np.empty(seeds)
        comparator_clean = True
        for s in range(seeds):
            m, c = _run_hidden_mu(learner_name, 1000 + s, T)
            mistakes[s] = m
            comparator_clean = comparator_clean and (c == 0)
        mean = float(mistakes.mean())
        within = abs(mean - T / 2) <= 3 * math.sqrt(T)
        ok = ok and within and comparator_clean
        details.append(f"{learner_name}: mean={mean:.1f}")
    elapsed = time.perf_counter() - t0
    _report(10, "hidden-measure adversary forces T/2 mistakes, comparator makes none",
            ok and elapsed < 60, f"{'; '.join(details)} (target 20 +- 19), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 11. SquareCB chain
# ---------------------------------------------------------------------------

def _chain_rhs(gamma: float, reg_sq: float, K: int, T: int) -> float:
    return (gamma / 2 * reg_sq + 4 * gamma * math.log(2 * T)
            + 2 * K * T / gamma + math.sqrt(2 * T * math.log(2 * T)) + 1)


def test_criterion_11_square_cb_chain():
    t0 = time.perf_counter()
    K = 2
    base = {"K": K, "sigma": 0.5, "regressor": "ftpl-dual",
            "ground": {"atoms": 16}, "class": {"type": "random_product", "H": 4},
            "class_seed": 7}
    long = run_bandit_experiment({**base, "T": 2000, "seeds": list(range(20))})
    chain_holds = sum(
        r["reg_cb"] <= _chain_rhs(r["gamma"], r["reg_sq"], K, 2000)
        for r in long["per_seed"]
    )
    short = run_bandit_experiment({**base, "T": 200, "seeds": list(range(10))})
    decreasing = sum(
        l["reg_cb"] / 2000 < s["reg_cb"] / 200
        for l, s in zip(long["per_seed"][:10], short["per_seed"])
    )
    elapsed = time.perf_counter() - t0
    ok = chain_holds >= 19 and decreasing >= 8 and elapsed < 600
    _report(11, "bandit regret obeys the square-loss chain bound and shrinks",
            ok, f"chain {chain_holds}/20, decreasing {decreasing}/10, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 12. determinism
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    for learner in ("relax-linear", "ftpl-dual"):
        raw = {
            "learner": {"name": learner},
            "adversary": {"kind": "adaptive_mixture",
                          "labels": {"rule": "adversarial_flip"}},
            "class": {"type": "thresholds", "m": 16},
            "loss": "linear",
            "T": 25, "sigma": 0.5, "seeds": [0, 1],
            "ground": {"type": "grid", "atoms": 32},
        }
        paths = []
        for rep in range(2):
            out = tmp_path / f"{learner}-{rep}"
            cfg = ExperimentConfig.from_dict({**raw, "output_dir": str(out)})
            run_experiment(cfg)
            paths.append(out)
        for seed in (0, 1):
            a = (paths[0] / f"trace_seed{seed}.csv").read_bytes()
            b = (paths[1] / f"trace_seed{seed}.csv").read_bytes()
            ok = ok and a == b and len(a) > 0
    elapsed = time.perf_counter() - t0
    _report(12, "seeded reruns produce byte-identical traces",
            ok and elapsed < 10, f"{elapsed:.1f}s")
