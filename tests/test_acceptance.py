"""Release gate: nine end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen; under plain pytest they appear in the captured output of
any failing check.  Every check is seeded, so a pass here is reproducible
bit for bit on any machine with the same dependency versions.

The risk-table checks (7 and 8) drive the installed CLI end to end at
desk scale: p = 1001 and 500 replications instead of the full-scale
p = 100001 and 10^4.  The full-scale recipe is in the README; it changes
only the config values, not the code path.
"""

import math
import time

import numpy as np

from driftsel import cli
from driftsel import signal as sg
from driftsel.estimator import estimate_proxy_variance
from driftsel.noise import NoiseSpec, sample_observations, stream_keys
from driftsel.renewal import InterarrivalLaw, solve_renewal_density
from driftsel.risk import RunConfig, pinsker_constant, run_risk_experiment
from reference_coeffs import correction_coeffs, discrete_fourier_coeffs, estimate_coefficients, increments

import pytest

SQRT2 = math.sqrt(2.0)
SIGMA_TARGET = 1.0 / 3.0

# amplitude pair used throughout the numerical study
RHO1 = 0.5
RHO2 = 0.5


def verdict(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def exponential_third():
    # exponential inter-arrivals with mean 3, so that
    # rho1^2 + rho2^2 / tau = 1/4 + 1/12 = 1/3 matches the chi-squared study
    return InterarrivalLaw.exponential(1.0 / 3.0)


def zero_signal():
    return sg.SignalSpec.trig_polynomial([0.0])


# ----------------------------------------------------------------------
# 1. discrete orthonormality of the trigonometric basis
# ----------------------------------------------------------------------

def test_criterion_1_basis_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (4, 8, 16, 101):
        t = np.arange(1, p + 1) / p
        M = np.stack([sg.trig_basis_eval(j, t) for j in range(1, p)])
        worst = max(worst, float(np.abs(M @ M.T / p - np.eye(p - 1)).max()))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"orthonormality deviation {worst:.2e} (tol 1e-10), p in {{4, 8, 16, 101}} "
        f"[{elapsed:.2f}s < 1s]",
    )


# ----------------------------------------------------------------------
# 2. renewal-density solver against the two closed-form laws
# ----------------------------------------------------------------------

def test_criterion_2_renewal_oracles():
    t0 = time.perf_counter()
    exp_sol = solve_renewal_density(InterarrivalLaw.exponential(1.0), h=1e-3, horizon=20.0)
    exp_dev = float(np.abs(exp_sol.rho - 1.0).max())

    gamma_sol = solve_renewal_density(InterarrivalLaw.gamma(2.0, 1.0), h=1e-3, horizon=40.0)
    x = np.arange(gamma_sol.rho.size) * gamma_sol.h
    gamma_dev = float(np.abs(gamma_sol.rho - (1.0 - np.exp(-2.0 * x)) / 2.0).max())
    elapsed = time.perf_counter() - t0

    ok = (
        exp_dev < 1e-6
        and exp_sol.upsilon_l1 < 1e-4
        and gamma_dev < 1e-4
        and abs(gamma_sol.upsilon_l1 - 0.25) <= 1e-3
    )
    verdict(
        2,
        ok and elapsed < 10.0,
        f"exponential |rho-1|={exp_dev:.2e}, |Y|_1={exp_sol.upsilon_l1:.2e}; "
        f"gamma(2,1) max err={gamma_dev:.2e}, |Y|_1={gamma_sol.upsilon_l1:.6f} "
        f"(want 0.25 +/- 1e-3) [{elapsed:.1f}s < 10s]",
    )


# ----------------------------------------------------------------------
# 3. covariance identity for the noise integral
# ----------------------------------------------------------------------

def test_criterion_3_covariance_identity():
    t0 = time.perf_counter()
    n, p, reps, seed = 50, 101, 20_000, 9301
    spec = NoiseSpec(rho1=RHO1, rho2=RHO2, interarrival=exponential_third())
    flat = zero_signal()
    phi2 = sg.trig_basis_eval(2, np.arange(1, n * p + 1) / p)
    vals = np.empty(reps)
    for r in range(reps):
        path = sample_observations(flat, spec, n, p, stream_keys(seed, r, r + 1)[0])
        integral = float(phi2 @ increments(path))
        vals[r] = integral * integral / n
    dev = abs(float(vals.mean()) - SIGMA_TARGET)
    band = 3.0 * float(vals.std(ddof=1)) / math.sqrt(reps)
    elapsed = time.perf_counter() - t0
    verdict(
        3,
        dev <= band and elapsed < 120.0,
        f"E I_n^2(phi_2)/n off 1/3 by {dev:.5f} <= 3 s.e. = {band:.5f} "
        f"({reps} paths, n={n}) [{elapsed:.1f}s < 120s]",
    )


# ----------------------------------------------------------------------
# 4. proxy-variance estimator with no signal
# ----------------------------------------------------------------------

def test_criterion_4_proxy_variance():
    t0 = time.perf_counter()
    n, p, reps, seed = 100, 1001, 1000, 9401
    spec = NoiseSpec(rho1=RHO1, rho2=RHO2, interarrival=exponential_third())
    flat = zero_signal()
    devs = np.empty(reps)
    for r in range(reps):
        path = sample_observations(flat, spec, n, p, stream_keys(seed, r, r + 1)[0])
        devs[r] = abs(estimate_proxy_variance(estimate_coefficients(path)) - SIGMA_TARGET)
    mean_dev = float(devs.mean())
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        mean_dev <= 0.05 and elapsed < 300.0,
        f"mean |sigma_hat - 1/3| = {mean_dev:.4f} <= 0.05 "
        f"({reps} replications, n={n}, p={p}) [{elapsed:.1f}s < 300s]",
    )


# ----------------------------------------------------------------------
# 5. sharp minimax constant
# ----------------------------------------------------------------------

def test_criterion_5_pinsker_constant():
    value = pinsker_constant(1, 1.0)

    # independent evaluation at 50 digits
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    k = mp.mpf(1)
    r = mp.mpf(1)
    exact = ((2 * k + 1) * r) ** (1 / (2 * k + 1)) * (
        k / ((k + 1) * mp.pi)
    ) ** (2 * k / (2 * k + 1))

    dev_ref = abs(value - 0.4236)
    dev_exact = abs(value - float(exact))
    verdict(
        5,
        dev_ref <= 5e-4 and dev_exact < 1e-12,
        f"r*_1(1) = {value:.10f}; |value - 0.4236| = {dev_ref:.2e} <= 5e-4, "
        f"50-digit evaluation agrees to {dev_exact:.1e}",
    )


# ----------------------------------------------------------------------
# 6. oracle inequality at desk scale
# ----------------------------------------------------------------------

def test_criterion_6_oracle_inequality():
    t0 = time.perf_counter()
    cfg = RunConfig(n_values=(100,), p=1001, replications=500, k_star=5, seed=4242)
    row = next(row for row in run_risk_experiment(cfg) if row.n == 100)
    bound = 1.5 * row.oracle + 10.0 / row.n
    elapsed = time.perf_counter() - t0
    verdict(
        6,
        row.risk <= bound and elapsed < 900.0,
        f"selected risk {row.risk:.6f} <= 1.5 * oracle + 10/n = {bound:.6f} "
        f"(oracle {row.oracle:.6f}, N={row.replications}) [{elapsed:.1f}s < 900s]",
    )


# ----------------------------------------------------------------------
# 7 and 8. desk-scale risk table through the CLI, twice plus a
# two-thread rerun; shared fixture so the three runs happen once
# ----------------------------------------------------------------------

DESK_CONFIG = """\
risk.n_values = 20, 100, 200
risk.p = 1001
risk.replications = 500
"""

DESK_SEED = "7701"


def run_risk_table(out_dir, config_path, threads=None):
    args = ["risk-table", "--config", str(config_path), "--seed", DESK_SEED,
            "--out", str(out_dir)]
    if threads is not None:
        args += ["--threads", str(threads)]
    t0 = time.perf_counter()
    code = cli.main(args)
    elapsed = time.perf_counter() - t0
    assert code == 0, f"risk-table exited {code}"
    return (out_dir / "risk.csv").read_text(), elapsed


def mask_wall_clock(csv_text):
    """Blank the seconds column; wall-clock time is the one permitted diff."""
    lines = csv_text.splitlines()
    masked = lines[:2]
    for line in lines[2:]:
        fields = line.split(",")
        fields[7] = ""
        masked.append(",".join(fields))
    return "\n".join(masked)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    config_path = base / "desk.cfg"
    config_path.write_text(DESK_CONFIG)
    runs = {}
    for label, threads in (("first", None), ("repeat", None), ("threaded", 2)):
        out_dir = base / label
        out_dir.mkdir()
        runs[label] = run_risk_table(out_dir, config_path, threads=threads)
    return runs


def test_criterion_7_risk_table_desk_scale(desk_runs):
    csv_text, elapsed = desk_runs["first"]
    risk = {}
    for line in csv_text.splitlines()[2:]:
        fields = line.split(",")
        risk[int(fields[0])] = float(fields[3])
    decreasing = risk[20] > risk[100] > risk[200]
    factor = risk[100] / 0.0091
    ratio = risk[20] / risk[100]
    verdict(
        7,
        decreasing and 1.0 / 3.0 <= factor <= 3.0 and ratio >= 2.0 and elapsed < 1800.0,
        f"R(20)={risk[20]:.5f} > R(100)={risk[100]:.5f} > R(200)={risk[200]:.5f}; "
        f"R(100)/0.0091 = {factor:.2f} in [1/3, 3]; R(20)/R(100) = {ratio:.2f} >= 2 "
        f"[{elapsed:.0f}s < 1800s]",
    )


def test_criterion_8_determinism(desk_runs):
    first, _ = desk_runs["first"]
    repeat, _ = desk_runs["repeat"]
    threaded, _ = desk_runs["threaded"]
    same_seed = mask_wall_clock(first) == mask_wall_clock(repeat)
    same_threads = mask_wall_clock(first) == mask_wall_clock(threaded)
    digests = {text.splitlines()[0] for text, _ in desk_runs.values()}
    verdict(
        8,
        same_seed and same_threads and len(digests) == 1,
        f"rerun identical={same_seed}, --threads 2 identical={same_threads}, "
        f"config digests agree={len(digests) == 1} (seconds column masked)",
    )


# ----------------------------------------------------------------------
# 9. coefficient bounds over random smooth signals
# ----------------------------------------------------------------------

def random_poly(rng, max_index=9):
    coeffs = rng.normal(size=max_index)
    return sg.SignalSpec.trig_polynomial(coeffs), coeffs


def derivative_coeffs(coeffs):
    c = np.asarray(coeffs, dtype=float)
    d = np.zeros(c.size + 2)
    for j in range(2, c.size + 1):
        k = j // 2
        if j % 2 == 0:
            d[2 * k] += -2.0 * math.pi * k * c[j - 1]
        else:
            d[2 * k - 1] += 2.0 * math.pi * k * c[j - 1]
    return d


def test_criterion_9_coefficient_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(929)
    grids = (64, 101, 301)
    violations = 0
    for trial in range(20):
        S, coeffs = random_poly(rng)
        p = grids[trial % 3]
        d1 = derivative_coeffs(coeffs)
        d2 = derivative_coeffs(d1)
        radius = float(coeffs @ coeffs + d1 @ d1 + d2 @ d2)

        theta_bar = discrete_fourier_coeffs(S, p) + correction_coeffs(S, p)
        fine = (np.arange(200_001) + 0.5) / 200_001
        deriv_l1 = float(np.mean(np.abs(sg.SignalSpec.trig_polynomial(d1)(fine))))

        j = np.arange(2, p + 1)
        if float(np.max(j * np.abs(theta_bar[1:]))) > 2.0 * SQRT2 * deriv_l1:
            violations += 1
        if float(np.sum(correction_coeffs(S, p) ** 2)) > 3.0 * radius / p**2:
            violations += 1
    elapsed = time.perf_counter() - t0
    verdict(
        9,
        violations == 0,
        f"20 random polynomials: {violations} violations of "
        f"max_j j|theta_bar_j| <= 2 sqrt(2) |S'|_1 and sum h^2 <= 3r/p^2 "
        f"[{elapsed:.1f}s]",
    )
