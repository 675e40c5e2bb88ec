"""Acceptance suite: every release criterion, one test each, pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  The ensemble is fully seeded, so reruns are exact
replays.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from ffdist import (
    distance_set,
    forward_transform,
    make_field,
    nu_brute,
    nu_spectral,
    set_spectrum,
    sphere_spectrum,
)
from ffdist.checks import (
    check_distance_theorem,
    check_nu_zero_bound,
    check_sigma_bound,
    check_sphere_bounds,
)
from ffdist.distance import (
    cross_profile,
    indicator_grid,
    intersection_count,
    make_point_set,
    spherical_profile,
)
from ffdist.generators import GeneratorSpec, generate
from ffdist.spectral import by_norm, inverse_transform
from ffdist.sweep import SweepConfig, run_bench, run_verify
from conftest import cli
from test_charsums import closed_form
from test_spectral import closed_form_spectrum

MASTER_SEED = 20240801
CELLS = [(q, s) for q in (3, 5, 7, 13, 31) for s in (2, 3)]
BASELINE = Path(__file__).parent / "data" / "measured_constants.json"


def cell_rng(q, s, salt=0):
    return np.random.default_rng([MASTER_SEED, q, s, salt])


def draw_set(q, s, size, rng):
    flat = rng.choice(q ** s, size=size, replace=False)
    pts = np.stack(np.unravel_index(flat, (q,) * s), axis=1)
    return make_point_set(q, s, pts)


def identity_battery(ctx, E, F):
    """Criterion 1 + 4 checks for one pair; returns worst gaps."""
    q, s = E.q, E.s
    gE = indicator_grid(E)
    Ehat = forward_transform(ctx, gE)
    Fhat = set_spectrum(ctx, F)

    # Plancherel, relative: indicator energy is exactly #E
    energy = E.size / q ** s
    plancherel = abs(float(by_norm(ctx, np.abs(Ehat.values) ** 2).sum()) - energy)
    assert plancherel <= 1e-9 * max(1.0, energy)

    # inversion round trip on the indicator
    back = inverse_transform(ctx, Ehat)
    inv_gap = float(np.max(np.abs(back.values - gE.values)))
    assert inv_gap <= 1e-9

    # profile mass
    prof = spherical_profile(ctx, Ehat)
    mass_gap = abs(float(prof.sum()) - energy)
    assert mass_gap <= 1e-10

    # nu: spectral equals brute exactly, total mass exact
    brute = nu_brute(E, F)
    cp = cross_profile(ctx, Ehat, Fhat)
    spectral = nu_spectral(ctx, E, F, cross=cp)  # residual gated at 1e-6
    assert np.array_equal(brute.nu, spectral.nu)
    assert int(brute.nu.sum()) == E.size * F.size
    assert int(spectral.nu.sum()) == E.size * F.size

    # second-moment identity, 1e-8 relative
    inter = intersection_count(E, F)
    lhs = float((brute.nu.astype(np.float64) ** 2).sum())
    rhs = (E.size * F.size) ** 2 / q \
        + q ** (3 * s) * float(np.sum(np.abs(cp) ** 2)) \
        - float(q ** (s - 1)) * inter * inter
    sm_gap = abs(lhs - rhs) / max(1.0, abs(lhs))
    assert sm_gap <= 1e-8
    return plancherel, inv_gap, mass_gap, sm_gap


def test_criterion_1_and_4_exact_identities():
    """200 random (E, F) per cell plus s = 2 edge sizes; < 2 min."""
    t0 = time.perf_counter()
    pairs = 0
    for q, s in CELLS:
        ctx = make_field(q)
        rng = cell_rng(q, s)
        top = min(q ** s, 120)
        for _ in range(200):
            nE = int(rng.integers(1, top + 1))
            nF = int(rng.integers(1, top + 1))
            identity_battery(ctx, draw_set(q, s, nE, rng), draw_set(q, s, nF, rng))
            pairs += 1
    for q in (3, 5, 7, 13, 31):
        ctx = make_field(q)
        rng = cell_rng(q, 2, salt=1)
        mid = min(q ** 2 - 1, 37)
        for nE, nF in ((1, mid), (q ** 2, mid), (1, 1), (q ** 2, q ** 2)):
            identity_battery(ctx, draw_set(q, 2, nE, rng), draw_set(q, 2, nF, rng))
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 PASS: exact identities on {pairs} pairs in {elapsed:.1f}s")
    print("ACCEPTANCE 4 PASS: nu_spectral == nu_brute on every pair, "
          "residual gate 1e-6 never tripped")


def test_criterion_2_sphere_closed_form():
    worst = 0.0
    for q in (3, 5, 7, 11, 13):
        ctx = make_field(q)
        for s in (2, 3):
            for r in range(q):
                d = sphere_spectrum(ctx, s, r).values
                c = closed_form_spectrum(ctx, s, r)
                worst = max(worst, float(np.max(np.abs(d - c))))
    assert worst <= 1e-9

    ctx = make_field(31)
    rng = cell_rng(31, 0, salt=2)
    sampled = 0.0
    for s in (2, 3):
        # Sampled over the stored half, last-axis indices 0 .. 15.
        spectra = {r: sphere_spectrum(ctx, s, r).values for r in range(31)}
        for _ in range(1000):
            r = int(rng.integers(0, 31))
            m = np.unravel_index(int(rng.integers(0, spectra[r].size)), spectra[r].shape)
            got = closed_form(ctx, s, r, m)
            sampled = max(sampled, abs(got - spectra[r][m]))
    assert sampled <= 1e-9
    print(f"\nACCEPTANCE 2 PASS: closed form vs sphere_spectrum, exhaustive q<=13 "
          f"(worst {worst:.2e}), 1000 samples q=31 per s (worst {sampled:.2e})")


def test_criterion_3_corollary_constants():
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = make_field(q)
        for s in (2, 3):
            rep = check_sphere_bounds(ctx, s)
            assert rep.explicit_pass, f"violation at q={q}, s={s}: {rep.rhs_terms}"
    print("\nACCEPTANCE 3 PASS: sphere-transform constants (1, 2, 2, 2) and the "
          "exact isotropic value, zero violations for q in 3..31, s in {2,3}")


def test_criterion_5_explicit_constant_lemmas():
    # broad ensemble: sigma bound and the unconditional delta bound
    for q, s in CELLS:
        ctx = make_field(q)
        rng = cell_rng(q, s, salt=3)
        top = min(q ** s, 120)
        for _ in range(10):
            E = draw_set(q, s, int(rng.integers(1, top + 1)), rng)
            F = draw_set(q, s, int(rng.integers(1, top + 1)), rng)
            assert check_sigma_bound(ctx, E, F).explicit_pass
            assert check_nu_zero_bound(ctx, E, F).explicit_pass

    # feasible dense cell for the 21/30 bound: q = 31, s = 2
    ctx = make_field(31)
    rng = cell_rng(31, 2, salt=4)
    hyp_seen = 0
    dense_pairs = [(961, 961), (935, 961), (930, 961), (940, 940), (961, 930)]
    dense_pairs += [(int(rng.integers(931, 962)), int(rng.integers(931, 962)))
                    for _ in range(5)]
    for nE, nF in dense_pairs:
        E = draw_set(31, 2, nE, rng)
        F = draw_set(31, 2, nF, rng)
        rep = check_nu_zero_bound(ctx, E, F)
        assert rep.explicit_pass
        if rep.hypothesis_met:
            hyp_seen += 1
            assert rep.lhs <= 0.7 * nE * nF
    assert hyp_seen >= 5
    print(f"\nACCEPTANCE 5 PASS: sigma bound (constant 2), unconditional delta "
          f"bound everywhere, nu(0) <= 0.7 #E #F on {hyp_seen} hypothesis cells")


def test_criterion_6_isotropic_line_counterexample():
    for q in (5, 13, 17):
        ctx = make_field(q)
        E = generate(ctx, 2, GeneratorSpec("isotropic_line"))
        assert E.size == q
        dist = nu_brute(E, E)
        assert int(dist.nu[0]) == q * q
        assert distance_set(dist) == {0}
    print("\nACCEPTANCE 6 PASS: isotropic line has #E = q, nu(0) = q^2, "
          "one attained distance, for q in {5, 13, 17}")


def test_criterion_7_theorem_desk_check():
    ctx = make_field(31)
    rng = cell_rng(31, 2, salt=5)
    for trial in range(20):
        E = draw_set(31, 2, 932, rng)
        F = draw_set(31, 2, 932, rng)
        rep = check_distance_theorem(ctx, E, F)
        assert rep.hypothesis_met
        assert rep.lhs == 31.0, f"trial {trial}: support {rep.lhs}"
        assert rep.measured_constant >= 1.0
    print("\nACCEPTANCE 7 PASS: 20/20 dense trials at q=31, s=2, #E=#F=932 "
          "attain all q distances; measured constant >= 1")


def test_criterion_8_measured_constant_regression():
    rows = []
    for q in (7, 13, 31):
        for s in (2, 3):
            checkers = ["profile_product", "offzero_moment"]
            if s % 2 == 0:
                checkers.append("cross_zero")
            cfg = SweepConfig(
                q_list=[q], s_list=[s],
                size_pairs=[(max(2, q ** s // 10), max(3, q ** s // 5))],
                trials=3, seed=MASTER_SEED, checkers=checkers)
            rows.extend(run_verify(cfg))
    current: dict[str, float] = {}
    for row in rows:
        mc = row.report.measured_constant
        assert mc is not None and math.isfinite(mc) and mc >= 0.0
        key = f"{row.report.lemma_id}:{row.q}:{row.s}"
        current[key] = max(current.get(key, 0.0), mc)

    if not BASELINE.exists():
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"\nACCEPTANCE 8 PASS (baseline written): {len(current)} cells")
        return
    stored = json.loads(BASELINE.read_text())
    assert set(current) == set(stored), "cell set changed; regenerate baseline"
    for key, value in current.items():
        assert value <= 2.0 * stored[key], (
            f"{key}: measured {value:.6g} exceeds 2x stored {stored[key]:.6g}")
    print(f"\nACCEPTANCE 8 PASS: {len(current)} measured-constant cells within "
          "2x of stored baseline")


def test_criterion_9_benchmark():
    t0 = time.perf_counter()
    rep = run_bench(101, 2, 5000, 5000, repetitions=5, seed=MASTER_SEED)
    elapsed = time.perf_counter() - t0
    assert rep["mode"] == "full"
    assert rep["outputs_match"]
    assert rep["speedup"] >= 5.0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 9 PASS: q=101, 5000x5000: brute {rep['t_brute']:.3f}s, "
          f"spectral {rep['t_spectral']:.4f}s, speedup {rep['speedup']:.0f}x, "
          f"total {elapsed:.1f}s")


def test_criterion_10_sweep_determinism(tmp_path):
    args = ["sweep", "--q", "3,5,7", "--s", "2,3", "--sizes", "5x8,7x7",
            "--trials", "2", "--seed", "424242",
            "--lemma", "profile_mass,nu_spectral,second_moment,sigma_bound,dyadic"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ra, rb = cli(*args, "--out", str(a)), cli(*args, "--out", str(b))
    assert ra.returncode == 0 and rb.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 3 * 2 * 2 * 2 * 5
    print("\nACCEPTANCE 10 PASS: identical sweep invocations give "
          "byte-identical CSV")
