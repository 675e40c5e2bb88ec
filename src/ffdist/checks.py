"""One checker per verified statement.

Each checker computes both sides of an identity or inequality on a
concrete (q, s, E, F) instance and returns a LemmaReport.  Two classes
of verdict are kept strictly apart:

  * explicit_pass — set only when a concrete constant is asserted,
    either given outright (900, 21/30, the 2/q sphere bound) or forced
    by the derivation (the factor-2 bounds that fall out of the Weil /
    Salie estimate and the unconditional delta bound).  A False here is
    a build-stopping event.

  * measured_constant — for bounds that only claim an unspecified
    multiplicative constant.  The checker divides the left side by the
    constant-free envelope and reports the ratio; nothing is asserted.

log means natural logarithm throughout, so measured constants are
comparable across runs.  Hypothesis-failing inputs are reported with
hypothesis_met=False, never raised, so sweeps can traverse mixed
ensembles.

The checkers of one (ctx, E, F) cell share one Instance, which computes each
quantity at most once; the next cell of the same field takes over the ones
that depend on (ctx, s) alone, |S_0| and the sphere_bounds report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import charsums
from .distance import (
    PointSet,
    cross_profile,
    distance_set,
    intersection_count,
    nu_brute,
    nu_spectral,
    set_spectra,
    spherical_profile,
)
from .field import FieldContext
from .spectral import half_norm_grid, sphere_blocks, sphere_counts

# Absolute slack for inequalities that hold with real margin; covers
# float noise only, never a constant.
_SLACK = 1e-12


@dataclass
class LemmaReport:
    """Outcome of one checker on one input."""

    lemma_id: str
    hypothesis_met: bool
    lhs: float
    rhs_terms: dict[str, float] = field(default_factory=dict)
    explicit_pass: Optional[bool] = None
    measured_constant: Optional[float] = None
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), allow_nan=False, sort_keys=False)


class Instance:
    """One (ctx, E, F) cell; each quantity is computed on first use, once, under ctx's caps."""

    def __init__(self, ctx: FieldContext, E: PointSet, F: PointSet):
        self.ctx, self.E, self.F = ctx, E, F

    spectra = cached_property(lambda self: set_spectra(self.ctx, self.E, self.F))
    sig_e = cached_property(lambda self: spherical_profile(self.ctx, self.spectra[0]))
    sig_f = cached_property(lambda self: spherical_profile(self.ctx, self.spectra[1]))
    sig_ef = cached_property(lambda self: cross_profile(self.ctx, *self.spectra))
    brute = cached_property(lambda self: nu_brute(self.E, self.F, pair_cap=self.ctx.pair_cap))
    spectral = cached_property(lambda self: nu_spectral(self.ctx, self.E, self.F,
                                                        cross=self.sig_ef))
    # Per-field: functions of (ctx, s) alone, handed on by instance().
    s0_size = cached_property(lambda self: int(sphere_counts(self.ctx, self.E.s)[0]))
    sphere_bounds = cached_property(lambda self: check_sphere_bounds(self.ctx, self.E.s))


_last: Optional[Instance] = None


def instance(ctx: FieldContext, E: PointSet, F: PointSet) -> Instance:
    """The Instance of (ctx, E, F); the previous one when all three are the same objects,
    else a new one that keeps the previous per-field results when ctx and s are the same."""
    global _last
    if _last is None or _last.ctx is not ctx or _last.E is not E or _last.F is not F:
        last, _last = _last, Instance(ctx, E, F)
        if last is not None and last.ctx is ctx and last.E.s == E.s:
            _last.__dict__.update((k, v) for k, v in vars(last).items()
                                  if k in ("s0_size", "sphere_bounds"))
    return _last


def release() -> None:
    """Drop the memoised Instance, and with it the cell's spectra and per-field results."""
    global _last
    _last = None


def check_profile_mass(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Total spherical mass of F: sum_r sigma_F(r) = q^(-s) #F (Plancherel).

    sigma_F is the cell's profile, from Instance.sig_f; E only names the cell.
    """
    lhs = float(instance(ctx, E, F).sig_f.sum())
    rhs = F.size / F.q ** F.s
    gap = abs(lhs - rhs)
    return LemmaReport(
        lemma_id="profile_mass",
        hypothesis_met=True,
        lhs=lhs,
        rhs_terms={"mass": rhs, "gap": gap},
        explicit_pass=bool(gap <= 1e-10),
        notes="two-sided evaluation; equality to 1e-10",
    )


def check_nu_spectral(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Spectral route for nu(j) reproduces the pair-count oracle exactly."""
    inst = instance(ctx, E, F)
    diff = int(np.max(np.abs(inst.brute.nu - inst.spectral.nu)))
    return LemmaReport(
        lemma_id="nu_spectral",
        hypothesis_met=True,
        lhs=float(diff),
        rhs_terms={"pairs": float(E.size * F.size)},
        explicit_pass=bool(diff == 0),
        notes="max |nu_brute - nu_spectral| after integer rounding",
    )


def check_nu_zero_bound(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """nu(0) <= (21/30) #E #F whenever #E #F >= 900 q^s (s >= 2).

    The remainder delta = nu(0) - |S_0| #E #F / q^s, exact from the cell's
    nu(0) and its field's |S_0|, equals q^(2s) sum_{m != 0} Shat_0(m) conj(Ehat)
    Fhat and obeys |delta| <= q^(s/2) sqrt(#E #F) unconditionally (Cauchy-Schwarz
    plus Plancherel); that explicit bound is asserted on every input.
    """
    q, s = E.q, E.s
    mass = E.size * F.size
    hyp = s >= 2 and mass >= 900 * q ** s

    inst = instance(ctx, E, F)
    nu0 = int(inst.spectral.nu[0])
    delta_abs = float(abs(nu0 - Fraction(inst.s0_size * mass, q ** s)))
    delta_cap = q ** (s / 2) * math.sqrt(mass)
    nu0_cap = (21 / 30) * mass

    ok = delta_abs <= delta_cap + _SLACK
    if hyp:
        ok = ok and nu0 <= nu0_cap + _SLACK
    return LemmaReport(
        lemma_id="nu_zero",
        hypothesis_met=bool(hyp),
        lhs=float(nu0),
        rhs_terms={
            "two_mass_over_q": 2 * mass / q,
            "delta_abs": delta_abs,
            "delta_cap": delta_cap,
            "nu0_cap": nu0_cap,
        },
        explicit_pass=bool(ok),
        notes="delta bound asserted unconditionally; 21/30 bound only under "
              "the 900 q^s hypothesis",
    )


def check_second_moment(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """sum_j nu(j)^2 against its spectral expansion.

    Inequality form (asserted):
        sum nu^2 <= (#E #F)^2/q + q^(s-1) #E #F
                    + q^(3s) |sigma_EF(0)|^2
                    + q^(3s) sum_{r != 0} sigma_E sigma_F
    plus the exact identity
        sum nu^2 = (#E #F)^2/q + q^(3s) sum_r |sigma_EF(r)|^2
                   - q^(s-1) (#(E n F))^2
    to 1e-8 relative, and the Cauchy-Schwarz sub-step
    |sigma_EF(r)|^2 <= sigma_E sigma_F pointwise.  #(E n F) is reported as
    the intersection term; |V| = q^(s-1) (#(E n F))^2 <= q^(s-1) #E #F is not
    checked, since #(E n F) <= min(#E, #F) makes it hold for every pair of sets.
    """
    q, s = E.q, E.s
    mass = E.size * F.size
    inst = instance(ctx, E, F)
    lhs = float((inst.brute.nu.astype(np.float64) ** 2).sum())

    cross_sq = inst.sig_ef ** 2
    prod = inst.sig_e * inst.sig_f

    terms = {
        "mass_sq_over_q": mass * mass / q,
        "plancherel_term": float(q ** (s - 1)) * mass,
        "cross_zero_sq": q ** (3 * s) * float(cross_sq[0]),
        "profile_product_sum": q ** (3 * s) * float(prod[1:].sum()),
    }
    rhs = sum(terms.values())
    inequality_ok = lhs <= rhs * (1 + 1e-6) + _SLACK

    inter = intersection_count(E, F)
    identity_rhs = mass * mass / q + q ** (3 * s) * float(cross_sq.sum()) \
        - float(q ** (s - 1)) * inter * inter
    identity_gap = abs(lhs - identity_rhs) / max(1.0, abs(lhs))
    identity_ok = identity_gap <= 1e-8

    pointwise_ok = bool(np.all(cross_sq <= prod * (1 + 1e-9) + _SLACK))

    terms["identity_gap_rel"] = identity_gap
    terms["intersection"] = float(inter)
    return LemmaReport(
        lemma_id="second_moment",
        hypothesis_met=True,
        lhs=lhs,
        rhs_terms=terms,
        explicit_pass=bool(inequality_ok and identity_ok and pointwise_ok),
        notes="inequality at 1e-6 relative, exact identity at 1e-8 relative, "
              "plus pointwise Cauchy-Schwarz sub-step",
    )


def check_cross_zero(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Even-s asymptotic |sigma_EF(0)|^2 = q^(-3s) nu(0)^2 + O(q^(-3s-1) (#E #F)^2).

    The O-constant is unstated, so nothing is asserted; the checker
    reports the measured constant |lhs - main| * q^(3s+1) / (#E #F)^2.
    Even s is part of the hypothesis, so odd s is reported, not raised.
    """
    q, s = E.q, E.s
    mass = E.size * F.size
    hyp = s % 2 == 0 and E.size <= F.size and mass >= 900 * q ** s

    inst = instance(ctx, E, F)
    nu0 = int(inst.spectral.nu[0])
    lhs = float(inst.sig_ef[0] ** 2)
    main = q ** (-3 * s) * float(nu0) ** 2
    measured = abs(lhs - main) * q ** (3 * s + 1) / (mass * mass)
    return LemmaReport(
        lemma_id="cross_zero",
        hypothesis_met=bool(hyp),
        lhs=lhs,
        rhs_terms={"main_term": main, "error_scale": q ** (-3 * s - 1) * mass * mass},
        measured_constant=measured,
        notes="unstated O-constant; measured only",
    )


def check_profile_product(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Average bound for sum_{r != 0} sigma_E(r) sigma_F(r).

    Envelope (natural log, #E <= #F enforced by swap):
        log q * (q^(-2s-1) #E #F + q^(-(5s+1)/2) (#E)^2 #F).
    For odd s the r = 0 term can be included; for s = 2 the alternative
    envelope log q * q^(-5) (#E)^(3/2) #F is also measured.
    """
    inst = instance(ctx, E, F)
    prod = inst.sig_e * inst.sig_f  # symmetric in E and F
    if E.size > F.size:
        E, F = F, E
    q, s = E.q, E.s
    lhs = float(prod[1:].sum())
    env = math.log(q) * (q ** (-2 * s - 1) * E.size * F.size
                         + q ** (-(5 * s + 1) / 2) * E.size ** 2 * F.size)
    terms = {"envelope": env}
    if s % 2 == 1:
        terms["lhs_including_zero"] = float(prod.sum())
        terms["measured_including_zero"] = float(prod.sum()) / env
    if s == 2:
        alt = math.log(q) * q ** -5 * E.size ** 1.5 * F.size
        terms["alt_envelope"] = alt
        terms["measured_alt"] = lhs / alt
    return LemmaReport(
        lemma_id="profile_product",
        hypothesis_met=bool(s >= 2),
        lhs=lhs,
        rhs_terms=terms,
        measured_constant=lhs / env,
        notes="log-q envelope with unspecified constant; measured only",
    )


def check_sigma_bound(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Pointwise sigma_E(r) <= 2 q^(-s-1) #E + 2 q^(-(3s+1)/2) (#E)^2.

    Holds for every r != 0, and for r = 0 too when s is odd.  The
    constant 2 is forced by inserting |Shat_r(0)| <= 2/q and
    |Shat_r(m)| <= 2 q^(-(s+1)/2) into the expansion
    sigma_E(r) = q^(-s) sum_{x,y in E} Shat_r(y - x).  sigma_E is the
    cell's profile, from Instance.sig_e; F only names the cell.
    """
    q, s = E.q, E.s
    sig = instance(ctx, E, F).sig_e
    checked = sig if s % 2 == 1 else sig[1:]
    bound = 2 * q ** (-s - 1) * E.size + 2 * q ** (-(3 * s + 1) / 2) * E.size ** 2
    worst = float(checked.max())
    terms = {"bound": bound}
    measured = None
    if s == 2:
        alt = q ** -3 * E.size ** 1.5
        terms["alt_envelope"] = alt
        measured = float(sig[1:].max()) / alt
    return LemmaReport(
        lemma_id="sigma_bound",
        hypothesis_met=bool(s >= 2),
        lhs=worst,
        rhs_terms=terms,
        explicit_pass=bool(worst <= bound + _SLACK),
        measured_constant=measured,
        notes="constant 2 forced by the sphere-transform corollary bounds; "
              "s=2 alternative (#E)^(3/2) envelope measured only",
    )


def check_sphere_bounds(ctx: FieldContext, s: int) -> LemmaReport:
    """Exhaustive sphere-transform bounds over all r and all m.

    With w = |m|^2:
      1. |Shat_r(m)| <= q^(-s/2)                for m != 0;
      2. |Shat_r(m)| <= 2 q^(-(s+1)/2)          for m != 0 and (r != 0 or s odd);
      3. |Shat_r(0)| <= 2/q                     for s >= 2;
      4. even s:  Shat_0(m) = u_s (q^(-s/2) - q^(-s/2-1)) exactly for
         m != 0, w = 0, and |Shat_0(m)| <= 2 q^(-s/2-1) for m != 0, w != 0,
         where u_s is the unit constant of the closed form.

    Values come from spectral.sphere_blocks, every r at once from the
    axis-factored sum over t, so the check is independent of the closed form;
    each block is reduced to per-r maxima before the next is drawn.
    |Shat_r(m)| is even in m, so the stored half covers all m.
    """
    q = ctx.q
    caps = {
        "trivial_cap": q ** (-s / 2),
        "weil_cap": 2 * q ** (-(s + 1) / 2),
        "origin_cap": 2 / q,
        "isotropic_cap": 2 * q ** (-s / 2 - 1),
    }
    even = s % 2 == 0
    worst = np.zeros(q)  # max over m != 0 of |Shat_r(m)|, per r
    origin = np.zeros(q)  # |Shat_r(0)|
    exact_gap = aniso = 0.0  # even s, r = 0: over m != 0 with |m|^2 = 0, and |m|^2 != 0
    if even:
        expected = charsums.sphere_unit(ctx, s) * (q ** (-s / 2) - q ** (-s / 2 - 1))
        norms = half_norm_grid(ctx, s)
    for m0, vals in sphere_blocks(ctx, s):
        vals = vals.reshape(q, -1)
        mags = np.abs(vals)
        if m0 == 0:  # m = 0 sits at column 0 of this block
            origin = mags[:, 0].copy()
            mags[:, 0] = 0.0
        np.maximum(worst, mags.max(axis=1), out=worst)
        if even:
            w = norms[m0].ravel()
            iso = w == 0
            iso[0] &= m0 != 0  # not m = 0
            exact_gap = max(exact_gap, float(np.abs(vals[0, iso] - expected).max(initial=0.0)))
            aniso = max(aniso, float(mags[0, w != 0].max(initial=0.0)))
    ok = bool(np.all(worst <= caps["trivial_cap"] + _SLACK))
    ok &= bool(np.all(worst[1 - s % 2:] <= caps["weil_cap"] + _SLACK))  # r = 0 at odd s only
    if s >= 2:
        ok &= bool(np.all(origin <= caps["origin_cap"] + _SLACK))
    if even:
        ok &= exact_gap <= 1e-9 and aniso <= caps["isotropic_cap"] + _SLACK
    caps["exact_value_gap"] = exact_gap
    return LemmaReport(
        lemma_id="sphere_bounds",
        hypothesis_met=True,
        lhs=float(worst.max()),
        rhs_terms=caps,
        explicit_pass=bool(ok),
        notes=f"exhaustive over all r, m at q={q}, s={s}; axis-factored values",
    )


def check_dyadic(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Share of the dyadic pigeonhole envelope of sigma_F that the cell uses.

    Level i collects the r != 0 with 2^(i-1) < sigma_F(r) <= 2^i, for
    ceil(-4 s log2 q) <= i <= 0; smaller values are floor mass, bounded by
    q^(1-4s).  With T_i the sum of sigma_E sigma_F over level i,
        sum_{r != 0} sigma_E sigma_F <= q^(1-4s) + n_levels * max_i T_i
    holds by construction for profiles with values in [0, 1], so nothing is
    asserted: the measured constant is the left side over that envelope.  The
    chosen level is the one of largest T_i, the higher i on a tie.
    """
    q, s = E.q, E.s
    inst = instance(ctx, E, F)
    weight = inst.sig_e * inst.sig_f
    i_min = math.ceil(-4 * s * math.log2(q))
    members: dict[int, list[int]] = {i: [] for i in range(i_min, 1)}
    for r in range(1, q):
        v = float(inst.sig_f[r])
        i = min(0, math.ceil(math.log2(v))) if v > 0.0 else i_min - 1
        if i >= i_min:  # else floor mass
            members[i].append(r)
    sums = {i: float(sum(weight[r] for r in rs)) for i, rs in members.items()}
    lhs = float(weight[1:].sum())
    max_t = max(sums.values())
    _, chosen = max(((t, i) for i, t in sums.items() if members[i]), default=(0.0, None))
    floor = q ** (1 - 4 * s)
    return LemmaReport(
        lemma_id="dyadic",
        hypothesis_met=True,
        lhs=lhs,
        rhs_terms={
            "floor_term": floor,
            "level_count": float(len(members)),
            "max_level_sum": max_t,
            "chosen_A": 0.0 if chosen is None else 2.0 ** (chosen - 1),
            "chosen_size": 0.0 if chosen is None else float(len(members[chosen])),
        },
        measured_constant=lhs / (floor + len(members) * max_t),
        notes="levels on sigma_F; lhs over the pigeonhole envelope; measured only",
    )


def check_distance_theorem(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Distance-set lower bound at the theorem's hypothesis.

    With #E <= #F and #E #F >= (900 + log q) q^s, the attained-distance
    count is compared against min{q, #F / (q^((s-1)/2) log q)} and, for
    s = 2, against min{q, sqrt(#E) #F / (q log q)}.  Only measured
    constants are reported.
    """
    nu = instance(ctx, E, F).spectral  # symmetric in E and F
    if E.size > F.size:
        E, F = F, E
    q, s = E.q, E.s
    hyp = E.size * F.size >= (900 + math.log(q)) * q ** s
    support = len(distance_set(nu))
    envelope = min(float(q), F.size / (q ** ((s - 1) / 2) * math.log(q)))
    terms = {"envelope": envelope, "q": float(q)}
    if s == 2:
        alt = min(float(q), math.sqrt(E.size) * F.size / (q * math.log(q)))
        terms["alt_envelope"] = alt
        terms["measured_alt"] = support / alt
    return LemmaReport(
        lemma_id="distance_theorem",
        hypothesis_met=bool(hyp),
        lhs=float(support),
        rhs_terms=terms,
        measured_constant=support / envelope,
        notes="asymptotic theorem; measured against its envelope only",
    )


def check_offzero_moment(ctx: FieldContext, E: PointSet, F: PointSet) -> LemmaReport:
    """Second moment of nu off zero against its combined envelope.

    With #E <= #F and #E #F >= (log q + 900) q^s:
        sum_{r != 0} nu(r)^2  vs  (#E #F)^2/q + log q * q^((s-1)/2) (#E)^2 #F,
    and for s = 2 the alternative with q (#E)^(3/2) #F.
    """
    nu = instance(ctx, E, F).spectral.nu.astype(np.float64)  # symmetric in E and F
    if E.size > F.size:
        E, F = F, E
    q, s = E.q, E.s
    mass = E.size * F.size
    hyp = mass >= (math.log(q) + 900) * q ** s
    lhs = float((nu[1:] ** 2).sum())
    env = mass * mass / q + math.log(q) * q ** ((s - 1) / 2) * E.size ** 2 * F.size
    terms = {"envelope": env}
    if s == 2:
        alt = mass * mass / q + math.log(q) * q * E.size ** 1.5 * F.size
        terms["alt_envelope"] = alt
        terms["measured_alt"] = lhs / alt
    return LemmaReport(
        lemma_id="offzero_moment",
        hypothesis_met=bool(hyp),
        lhs=lhs,
        rhs_terms=terms,
        measured_constant=lhs / env,
        notes="asymptotic bound; measured against its envelope only",
    )


# Uniform (ctx, E, F) -> LemmaReport entry points for sweeps and the CLI;
# every entry reads the cell's Instance through instance().
CHECKERS: dict[str, Callable[[FieldContext, PointSet, PointSet], LemmaReport]] = {
    "profile_mass": check_profile_mass,
    "nu_spectral": check_nu_spectral,
    "nu_zero": check_nu_zero_bound,
    "second_moment": check_second_moment,
    "cross_zero": check_cross_zero,
    "profile_product": check_profile_product,
    "sigma_bound": check_sigma_bound,
    "sphere_bounds": lambda ctx, E, F: instance(ctx, E, F).sphere_bounds,
    "dyadic": check_dyadic,
    "distance_theorem": check_distance_theorem,
    "offzero_moment": check_offzero_moment,
}
