"""Acceptance gate: every release criterion at its stated tolerance.

Each test runs one named suite of the harness and prints a PASS/FAIL line
per criterion (visible with `pytest -s` or in the captured output of a
failing run).  The suites share one propagator cache, so the full module
stays within a few minutes at the standard 256-512 point grids.
"""

import pytest

from adiband import harness
from adiband.harness import SUITE_NAMES, PropagatorCache, run_suite

# each suite's criterion ids in report order: a criterion is neither dropped, renamed nor moved
CRITERIA = {
    "decoupling": ["decoupling-rate", "decoupling-rate-with-cutoff", "decoupling-time-growth"],
    "effective": ["effective-hitting-window", "effective-rate", "effective-beyond-window-logged"],
    "berry": ["berry-on-rate", "berry-off-floor"],
    "leakage": ["leakage-rate"],
    "observables": ["observable-p-rate", "observable-windowed_p^2-rate", "observable-q-exact"],
    "state-rates": ["packet-rate", "sharp-momentum-rate", "wkb-rate"],
    "identities": ["riesz-vs-spectral", "projection-gradient-split", "commutator-identity",
                   "commutator-inverse-two-routes", "bo-gauge-covariance", "identification-isometry",
                   "evolution-unitarity-energy"],
    "semiclassics": ["weyl-exact-symbols", "wigner-normalization", "verlet-harmonic-period",
                     "hitting-time-free-fixture"],
    "determinism": ["scan-reports-byte-identical"],
}


# the hitting_times calls of each suite that makes any: a config computes its window once,
# and each criterion loads its own config (effective: three loads of an effective_dynamics
# config; berry: two; leakage: one window for its time; semiclassics: the free fixture)
HITTING_TIMES = {"effective": 3, "berry": 2, "leakage": 1, "semiclassics": 1}


@pytest.fixture(scope="module")
def cache():
    return PropagatorCache()


def _run(name, cache):
    calls, real = [], harness.hitting_times

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "hitting_times", counted)
        report = run_suite(name, seed=0, cache=cache)
    for line in report.lines():
        print(line)
    assert [c.cid for c in report.criteria] == CRITERIA[name]
    assert len(calls) == HITTING_TIMES.get(name, 0)
    return report


def _assert_all(report):
    failed = [c.cid for c in report.criteria if not c.passed]
    assert report.passed, f"criteria failed: {failed}"


def test_every_suite_has_its_criterion_ids_pinned():
    assert list(CRITERIA) + ["all"] == list(SUITE_NAMES)
    assert sum(map(len, CRITERIA.values())) == 27


def test_criterion_1_band_decoupling_rate(cache):
    # full vs band-preserving evolution on the crossing-pair model:
    # first-order rate over the eps ladder, with and without the energy
    # cutoff, and near-linear growth in t under the cutoff
    _assert_all(_run("decoupling", cache))


def test_criterion_2_effective_dynamics_rate(cache):
    # full vs identified single-band evolution on the locally isolated
    # band: first-order rate inside the hitting-time window; beyond the
    # window the value is only logged
    _assert_all(_run("effective", cache))


def test_criterion_3_berry_connection_necessity(cache):
    # complex fibers: dropping the geometric vector potential leaves an
    # O(1) error floor, keeping it restores the first-order rate
    _assert_all(_run("berry", cache))


def test_criterion_4_boundary_leakage_rate(cache):
    # mass escaping the isolation window stays first order at 0.8 T+
    _assert_all(_run("leakage", cache))


def test_criterion_5_observable_reduction_residual(cache):
    # moving a Weyl observable through the band identification costs O(eps)
    # for momentum-dependent symbols and nothing for multiplication symbols
    _assert_all(_run("observables", cache))


def test_criterion_6_state_family_rates(cache):
    # semiclassical observable errors: sqrt(eps) for skewed packets, eps
    # for sharp momentum, at least sqrt(eps) for WKB states
    _assert_all(_run("state-rates", cache))


def test_criterion_7_identity_suite(cache):
    # resolvent-vs-spectral projections, gradient splitting, commutator
    # inverse (two routes), gauge covariance, isometry, unitarity
    _assert_all(_run("identities", cache))


def test_criterion_8_semiclassics_sanity(cache):
    # exact quantization of 1/q/p, Wigner normalization, integrator period,
    # free-motion hitting time
    _assert_all(_run("semiclassics", cache))


def test_criterion_9_determinism(cache):
    # identical configurations produce byte-identical reports
    _assert_all(_run("determinism", cache))
