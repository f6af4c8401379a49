"""Acceptance battery at desk scale: seed 7, 10^4 particles, 50 steps, T = 1.

One test per published criterion.  Each test prints the battery's pass/fail
line (visible with -s or in failure reports) and asserts the criterion's
verdict, attaching the full detail record on failure.  Tolerances live inside
the battery itself so the gate exercised here is byte-for-byte the one behind
the verify subcommand.

The battery runs once per module; at this scale it takes about a minute.
"""

import json

import pytest

from mfcontrol import main, run_battery

SEED = 7
PARTICLES = 10_000
STEPS = 50


@pytest.fixture(scope="module")
def battery():
    results = run_battery(seed=SEED, particles=PARTICLES, steps=STEPS)
    return {r.index: r for r in results}


def details(result) -> str:
    return json.dumps(result.to_dict(), indent=2, default=str)


def test_criterion_01_payoff_identity_on_every_builtin(battery):
    # Y^u_0 from the backward solve equals the reweighted payoff J(u) within
    # 3 combined stderr for the constant family on all built-ins, under 30 s.
    result = battery[1]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_02_density_normalization_is_martingale(battery):
    # E[L_t] = 1 within 4 stderr at every grid time for every matched flow.
    result = battery[2]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_03_fixpoint_iteration_counts_and_mean_ode(battery):
    # measure-independent drifts settle in exactly one productive iteration,
    # zero drift in zero; mean-field mean matches its ODE within 3 stderr.
    result = battery[3]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_04_hellinger_bound_dominates_tv(battery):
    # pathwise TV <= 8 sqrt(Gamma) + 5 stderr over all constant-control
    # pairs, and Gamma matches T (u - v)^2 / 8 within 3 stderr.
    result = battery[4]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_05_marginal_tv_below_pathspace_tv(battery):
    # binned marginal TV <= path-space TV + bin width + 5 stderr at every
    # grid time on every built-in.
    result = battery[5]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_06_linear_quadratic_optimum_certificate(battery):
    # synthesized feedback sits at -1 within pointwise 3 SE(z) + resolution,
    # value at -T/2 within 3 stderr + resolution, eps certificate consistent.
    result = battery[6]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_07_envelope_value_lower_bounds_sampled_controls(battery):
    # lower-envelope backward value Y*_0 <= Y^u_0 + 3 combined stderr for 20
    # sampled feedback controls on the linear-quadratic and mean-field
    # scenarios, each candidate priced under its own matched flow.
    result = battery[7]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_08_variance_payoff_identity_and_flatness(battery):
    # the variance payoff equals the weighted second-moment identity within
    # 3 delta-method stderr and stays at T for every constant control.
    result = battery[8]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_09_game_value_saddle_and_isaacs_abort(battery):
    # separated game: zero Isaacs gap, value at the initial point within
    # 3 stderr + grid term, no profitable single-player deviation; the
    # bilinear game aborts with exit code 1 on its gap of 2.
    result = battery[9]
    print(result.line())
    assert result.passed, details(result)


def test_criterion_10_reports_are_byte_deterministic(battery, tmp_path):
    # in-library: two sub-battery runs serialize to identical bytes
    result = battery[10]
    print(result.line())
    assert result.passed, details(result)

    # same contract at the command level: two verify runs with one config
    # must write byte-identical reports and exit identically
    codes = []
    payloads = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        out.mkdir()
        codes.append(main(["verify", "--seed", str(SEED), "--particles", "2000",
                           "--steps", "25", "--out", str(out)]))
        payloads.append((out / "report.json").read_bytes())
    assert codes[0] == codes[1] and codes[0] in (0, 1)
    assert payloads[0] == payloads[1]
