"""Lift verification, Hensel chains, the obstruction sweep, reports."""

import dataclasses

import numpy as np
import pytest

from defcert import cli, coeff, deform, fdmod, groups
from defcert.fdmod import RelationViolated

from conftest import (E, hensel_chain_at, mixed_rep_at, module_rep,
                      small_module, uniserial, unchecked_rep)


FAMILY_RELATION_COUNTS = {"I": 6, "II": 9, "III": 7}


# ---------------------------------------------------------------------------
# base modules and lift candidates


@pytest.mark.parametrize("family,d", deform.FAMILY_CASES)
def test_base_module_agrees_with_explicit_fixture(family, d, completed):
    system = completed(family, d)
    ours = deform.base_module(family, system)
    ref = small_module(family, system)
    assert ours.dim == ref.dim
    assert np.array_equal(ours.block_of, ref.block_of)
    for name in ours.algebra.generators:
        assert np.array_equal(ours.mats[name], ref.mats[name])


def test_builtin_lift_directions(completed):
    # one matrix unit each, sitting in degree 1
    for family, (name, i, j) in deform._LIFT_DIRECTION.items():
        d = 2 if family == "II" else 3
        L = deform.builtin_lift(
            family, deform.base_module(family, completed(family, d)))
        assert sorted(L.t_parts) == [name]
        part = L.t_parts[name]
        assert part.shape[2] == 1
        expect = np.zeros_like(part[:, :, 0])
        expect[i, j] = 1
        assert np.array_equal(part[:, :, 0], expect)


def test_lift_candidate_rejects_bad_input(completed):
    T = deform.base_module("I", completed("I", 2))
    with pytest.raises(ValueError, match="unknown generator"):
        deform.LiftCandidate(T, {"zeta": E(5, 0, 0)})
    with pytest.raises(ValueError, match="shape"):
        deform.LiftCandidate(T, {"gamma": np.zeros((4, 4))})


def test_lift_candidate_drops_zero_parts(completed):
    T = deform.base_module("I", completed("I", 2))
    L = deform.LiftCandidate(T, {"gamma": np.zeros((5, 5))})
    assert L.t_parts == {}
    assert L.max_degree() == 0


@pytest.mark.parametrize("family,d", deform.FAMILY_CASES)
def test_builtin_lift_satisfies_every_relation(family, d, completed):
    system = completed(family, d)
    cert = deform.verify_quiver_lift(deform.builtin_lift(
        family, deform.base_module(family, system)))
    assert cert.relations_checked == FAMILY_RELATION_COUNTS[family]
    assert cert.max_degree == 1
    assert cert.truncation_levels == (2, 3, 4)


def test_trivial_lift_is_valid_with_zero_class(completed):
    system = completed("I", 2)
    T = deform.base_module("I", system)
    L = deform.LiftCandidate(T, {})
    cert = deform.verify_quiver_lift(L)
    assert cert.relations_checked == FAMILY_RELATION_COUNTS["I"]
    cls = deform.first_order_class(L)
    assert cls.dim == 1
    assert cls.representative_is_trivial()


def test_perturbation_outside_arrow_block_is_rejected(completed):
    system = completed("I", 2)
    T = deform.base_module("I", system)
    bad = deform.LiftCandidate(T, {"gamma": E(5, 2, 4) + E(5, 2, 3)})
    with pytest.raises(RelationViolated) as exc:
        deform.verify_quiver_lift(bad)
    assert exc.value.relation_id == "grading:gamma"
    assert exc.value.position == (2, 3, 1)


def test_lift_premises_both_fail_on_a_broken_relation(completed):
    system = completed("I", 2)
    T = deform.base_module("I", system)
    bad = deform.LiftCandidate(T, {"gamma": E(5, 2, 4) + E(5, 0, 4)})
    flat, first = deform.lift_premises(bad)
    assert (flat.name, flat.verdict) == ("flat-lift", "FAIL")
    assert flat.computed["relation"].startswith("rel[")
    assert flat.computed["position"][2] == 1
    assert (first.name, first.verdict) == ("first-order-class", "FAIL")


def test_perturbation_inside_block_violates_a_relation(completed):
    system = completed("I", 2)
    T = deform.base_module("I", system)
    bad = deform.LiftCandidate(T, {"gamma": E(5, 2, 4) + E(5, 0, 4)})
    with pytest.raises(RelationViolated) as exc:
        deform.verify_quiver_lift(bad)
    assert exc.value.relation_id.startswith("rel[")
    i, j, deg = exc.value.position
    assert deg == 1  # failure appears in the t-linear coefficient


@pytest.mark.parametrize("family,d", deform.FAMILY_CASES)
def test_first_order_class_nonzero(family, d, completed):
    system = completed(family, d)
    cls = deform.first_order_class(deform.builtin_lift(
        family, deform.base_module(family, system)))
    assert cls.dim == 1
    assert not cls.representative_is_trivial()


def _conjugate_lift(T, L, f):
    """Action of (1 + tf) L (1 + tf)^(-1); f must square to zero mod p."""
    p = T.p
    assert not (f @ f % p).any()
    parts = {}
    for name in T.algebra.generators:
        poly = L.action_poly(name)
        deg = poly.shape[2]
        out = np.zeros((T.dim, T.dim, deg + 2), dtype=np.int64)
        # (1 + tf) X(t) (1 - tf): three convolution passes
        for k in range(deg):
            X = poly[:, :, k]
            out[:, :, k] += X
            out[:, :, k + 1] += (f @ X - X @ f) % p
            out[:, :, k + 2] += (-f @ X @ f) % p
        out %= p
        assert np.array_equal(out[:, :, 0], T.mats[name])
        if out[:, :, 1:].any():
            parts[name] = out[:, :, 1:]
    return deform.LiftCandidate(T, parts)


def test_coboundary_conjugate_of_trivial_lift_has_zero_class(completed):
    system = completed("I", 2)
    T = deform.base_module("I", system)
    f = E(5, 4, 1)  # block-preserving, radical-lowering, f^2 = 0
    L = _conjugate_lift(T, deform.LiftCandidate(T, {}), f)
    assert L.t_parts  # genuinely moved
    cert = deform.verify_quiver_lift(L)
    assert cert.relations_checked == FAMILY_RELATION_COUNTS["I"]
    assert deform.first_order_class(L).representative_is_trivial()


def test_first_order_class_is_additive_in_the_t_part(completed):
    system = completed("I", 2)
    T = deform.base_module("I", system)
    p = T.p
    Lb = deform.builtin_lift("I", T)
    Lc = _conjugate_lift(T, deform.LiftCandidate(T, {}), E(5, 4, 1))
    summed = {}
    for name in set(Lb.t_parts) | set(Lc.t_parts):
        deg = max(Lb.degree(name), Lc.degree(name))
        acc = np.zeros((T.dim, T.dim, deg), dtype=np.int64)
        for src in (Lb, Lc):
            part = src.t_parts.get(name)
            if part is not None:
                acc[:, :, : part.shape[2]] += part
        summed[name] = acc % p
    Ls = deform.LiftCandidate(T, summed)
    cert = deform.verify_quiver_lift(Ls)
    assert cert.relations_checked == FAMILY_RELATION_COUNTS["I"]
    # adding a coboundary direction leaves the class non-zero
    assert not deform.first_order_class(Ls).representative_is_trivial()
    # and the cocycle vectors literally add, slot by slot
    slots, _ = fdmod.extension_coboundaries(T, T)

    def as_vec(L):
        th = [np.pad(L.action_poly(name), [(0, 0), (0, 0), (0, 1)])[:, :, 1]
              for name in T.algebra.generators]
        return np.stack(th)[slots] % p

    assert np.array_equal((as_vec(Lb) + as_vec(Lc)) % p, as_vec(Ls))


def test_invalid_mod_t2_lift_fails_the_class_extraction(completed):
    system = completed("I", 2)
    T = deform.base_module("I", system)
    bad = deform.LiftCandidate(T, {"gamma": E(5, 0, 4)})
    with pytest.raises(RelationViolated):
        deform.first_order_class(bad)


def test_a_lift_valid_mod_t2_can_break_a_relation_at_t2(completed):
    # the in-block entry E(0, 4) of gamma that breaks a relation at t
    # breaks it at t^2 when it sits there; mod t^2 this is the built-in lift
    system = completed("I", 2)
    T = deform.base_module("I", system)
    gamma = np.stack([E(5, 2, 4), E(5, 0, 4)], axis=2)
    L = deform.LiftCandidate(T, {"gamma": gamma})
    with pytest.raises(RelationViolated) as exc:
        deform.verify_quiver_lift(L)
    assert exc.value.relation_id.startswith("rel[")
    assert exc.value.position[2] == 2
    cls = deform.first_order_class(L)
    ref = deform.first_order_class(deform.builtin_lift("I", T))
    assert cls.dim == 1 and not cls.representative_is_trivial()
    assert np.array_equal(cls.representative[0], ref.representative[0])


def test_grading_violations_at_two_degrees_report_the_lower(completed):
    # gamma: 0 -> 1 may not read basis vector 3 (vertex 2); the degree-2
    # entry (0, 3) comes first row-major, the degree-1 entry (2, 3) first
    # by degree
    system = completed("I", 2)
    T = deform.base_module("I", system)
    gamma = np.stack([E(5, 2, 4) + E(5, 2, 3), E(5, 0, 3)], axis=2)
    L = deform.LiftCandidate(T, {"gamma": gamma})
    for check in (lambda: deform.verify_quiver_lift(L),
                  lambda: deform.first_order_class(L)):
        with pytest.raises(RelationViolated) as exc:
            check()
        assert exc.value.relation_id == "grading:gamma"
        assert exc.value.position == (2, 3, 1)


# ---------------------------------------------------------------------------
# Hensel chains


def test_hensel_chain_p3_reaches_81():
    chain = hensel_chain_at(3, 4)
    assert [r.moduli[0] for r in chain] == [3, 9, 27, 81]
    for lo, hi in zip(chain, chain[1:]):
        assert np.array_equal(hi.convert(lo.moduli).mats, lo.mats)
    # regression pin: the solver zeroes free variables, so the level-2
    # representative is deterministic even though corrections are not unique
    assert np.array_equal(
        chain[1].generator_matrix("sigma")[:, :, 0],
        np.array([[4, 4], [6, 4]]),
    )
    assert np.array_equal(
        np.diagonal(chain[1].generator_matrix("epsilon")[:, :, 0]),
        np.array([8, 1]),  # Teichmueller lift of 2 mod 9
    )


def test_hensel_chain_past_int64_refuses():
    # the step to Z/3^20 multiplies entries up to 3^20 - 1 over 2 terms
    with pytest.raises(OverflowError):
        hensel_chain_at(3, 20)


@pytest.mark.parametrize("p", [5, 7])
def test_hensel_chain_coherent_with_teichmuller_eps(p):
    chain = hensel_chain_at(p, 4)
    base = groups.uniserial_representation(chain[0].table)
    assert np.array_equal(chain[0].mats, base.mats)
    for m, rep in enumerate(chain, start=1):
        mod = p**m
        diag = np.diagonal(rep.generator_matrix("epsilon")[:, :, 0])
        assert all(pow(int(v), p - 1, mod) == 1 for v in diag)
    for lo, hi in zip(chain, chain[1:]):
        assert np.array_equal(hi.convert(lo.moduli).mats, lo.mats)


def test_hensel_chain_starts_over_the_residue_field():
    # from Z/9 two levels would end at Z/27, not at the Z/9 asked for
    with pytest.raises(ValueError, match="starts over Z/p"):
        deform.hensel_chain(hensel_chain_at(3, 2)[1], 2)


@pytest.mark.parametrize("moduli", [coeff.mixed_deform(3, 2, 3),
                                    coeff.trunc_poly(3, 2)],
                         ids=["mixed_deform", "trunc_poly"])
def test_hensel_steps_refuse_a_ring_that_is_not_z_mod_p_to_the_n(moduli):
    qt = groups.build_group(3, quotient=True)
    one = np.eye(1, dtype=np.int64)
    triv = groups.GroupRep.from_generators(
        qt, moduli, {"sigma": one, "epsilon": one})
    with pytest.raises(ValueError, match="p-adic truncation ring"):
        deform.hensel_lift_step(triv)
    with pytest.raises(ValueError, match="p-adic truncation ring"):
        deform.hensel_chain(triv, 2)


def test_hensel_step_on_the_trivial_module_makes_no_correction():
    qt = groups.build_group(3, quotient=True)
    one = np.eye(1, dtype=np.int64)
    triv = groups.GroupRep.from_generators(
        qt, coeff.prime_field(3), {"sigma": one, "epsilon": one}
    )
    up = deform.hensel_lift_step(triv)
    assert up.moduli == coeff.trunc_witt(3, 2)
    assert np.array_equal(up.mats, np.ones_like(up.mats))


def test_hensel_step_p5_level_one_to_two():
    q5 = groups.build_group(5, quotient=True)
    r2 = deform.hensel_lift_step(groups.uniserial_representation(q5))
    assert r2.moduli == (25,)
    s = r2.generator_matrix("sigma")[:, :, 0]
    assert np.array_equal(s % 5, groups.uniserial_representation(
        q5).generator_matrix("sigma")[:, :, 0])
    diag = np.diagonal(r2.generator_matrix("epsilon")[:, :, 0])
    assert list(diag) == [18, 24, 7, 1]  # Teichmueller lifts of 3, 4, 2, 1


def test_hensel_step_requires_diagonal_teichmuller_eps():
    qt = groups.build_group(3, quotient=True)
    rep = groups.uniserial_representation(qt)
    g = np.array([[1, 1], [1, 2]], dtype=np.int64)  # invertible mod 3
    ginv = np.array([[2, 2], [2, 1]], dtype=np.int64)
    assert np.array_equal(g @ ginv % 3, np.eye(2, dtype=np.int64))
    moved = groups.GroupRep.from_generators(
        qt, coeff.prime_field(3),
        {
            "sigma": g @ rep.generator_matrix("sigma")[:, :, 0] @ ginv % 3,
            "epsilon": g @ rep.generator_matrix("epsilon")[:, :, 0] @ ginv % 3,
        },
    )
    with pytest.raises(ValueError, match="Teichmueller"):
        deform.hensel_lift_step(moved)


def test_hensel_step_refuses_a_sigma_whose_p_th_power_is_not_one():
    # the level-one sigma read over Z/9: its cube is [[1, 3], [0, 1]]
    qt = groups.build_group(3, quotient=True)
    bad = unchecked_rep(
        qt, coeff.trunc_witt(3, 2),
        {"sigma": np.array([[1, 1], [0, 1]])[..., None],
         "epsilon": np.diag([8, 1])[..., None]})
    with pytest.raises(deform.HenselObstruction,
                       match=r"defect not divisible by p\^m"):
        deform.hensel_lift_step(bad)


def test_hensel_rejects_full_group_table():
    full = groups.build_group(3, quotient=False)
    qt = groups.build_group(3, quotient=True)
    rep = groups.inflate(groups.uniserial_representation(qt), full)
    with pytest.raises(ValueError, match="quotient"):
        deform.hensel_lift_step(rep)


def test_hensel_obstruction_carries_level_info():
    err = deform.HenselObstruction(3, 2)
    assert err.p == 3 and err.level == 2
    assert "Z/3^2" in str(err)


# ---------------------------------------------------------------------------
# the mixed-ring representation


def test_mixed_representation_p3_table_and_identities():
    rep = mixed_rep_at(3, 2, 3)
    assert rep.moduli == coeff.mixed_deform(3, 2, 3)
    assert rep.table.size == 18
    assert rep.check_table() == []
    ids = deform.mixed_identity_checks(rep)
    assert ids["tau_power_p_is_identity"]
    assert ids["eps_conjugates_tau_to_power"]
    assert ids["eps_conjugation_exponent"] == 2
    tau = rep.mats[rep.table.tau]
    assert np.array_equal(tau[:, :, 0], np.eye(2, dtype=np.int64))
    assert np.array_equal(tau[:, :, 1], np.array([[0, 1], [0, 0]]))
    assert not tau[:, :, 2].any()
    eps0 = rep.mats[rep.table.eps][:, :, 0]
    assert list(np.diagonal(eps0)) == [8, 1]


@pytest.mark.parametrize("p", [5, 7])
def test_mixed_representation_identities(p):
    rep = mixed_rep_at(p, 2, 3)
    ids = deform.mixed_identity_checks(rep)
    assert ids["tau_power_p_is_identity"]
    assert ids["eps_conjugates_tau_to_power"]
    assert deform.tangent_class_is_nonzero(rep)


def test_mixed_representation_truncates_functorially():
    rep3 = mixed_rep_at(3, 2, 3)
    down = rep3.convert(coeff.mixed_deform(3, 2, 2))
    assert down.check_table() == []
    fresh = mixed_rep_at(3, 2, 2)
    assert np.array_equal(down.mats, fresh.mats)


def test_mixed_representation_needs_room_for_tau():
    with pytest.raises(ValueError, match="N >= 2"):
        mixed_rep_at(3, 2, 1)


@pytest.mark.parametrize("p,full_args", [(5, (5, 3)), (3, (5,))])
def test_mixed_representation_refuses_a_full_table_it_does_not_extend(
        p, full_args):
    # the chain is at the smallest primitive root: 2 at p = 3 and at p = 5
    with pytest.raises(ValueError, match=r"disagree on \(p, a_eps\)"):
        deform.mixed_representation(hensel_chain_at(p, 1),
                                    groups.build_group(*full_args), 3)


def test_mixed_ring_identities_refuse_a_quotient_table():
    # the quotient table has no tau, so the identities are not defined on
    # a representation over it, such as the top of a Hensel chain
    rep = hensel_chain_at(3, 2)[-1]
    assert rep.table.tau is None
    with pytest.raises(ValueError, match="full table"):
        deform.mixed_identity_checks(rep)
    with pytest.raises(ValueError, match="full table"):
        deform.mixed_ring_premise(rep)


def test_tangent_class_vanishes_for_constant_representations():
    # no t-part at all: the deformation is trivial by inspection
    qt = groups.build_group(3, quotient=True)
    full = groups.build_group(3, quotient=False)
    rep = groups.inflate(groups.uniserial_representation(qt), full)
    lifted = groups.GroupRep(
        full, coeff.mixed_deform(3, 1, 2),
        np.concatenate(
            [rep.mats, np.zeros_like(rep.mats)], axis=3
        ),
    )
    assert not deform.tangent_class_is_nonzero(lifted)


def test_tangent_class_vanishes_for_a_conjugated_lift():
    # (I + tX) rho (I - tX) = rho + t(X rho - rho X) is a trivial
    # deformation whose t-part is nonzero, so the coboundary span decides
    full = groups.build_group(3, quotient=False)
    rho = groups.inflate(
        uniserial(3), full
    ).mats[:, :, :, 0]
    X = np.array([[0, 0], [1, 0]], dtype=np.int64)
    lin = (X @ rho - rho @ X) % 3
    assert lin.any()
    lifted = groups.GroupRep(
        full, coeff.mixed_deform(3, 1, 2), np.stack([rho, lin], axis=3)
    )
    assert deform.tangent_class_is_nonzero(lifted) is False


# ---------------------------------------------------------------------------
# the obstruction identity


def test_obstruction_power_is_frozen_for_zero_matrix():
    passed, power = deform.obstruction_check(
        3, np.zeros((2, 2), dtype=np.int64))
    assert passed
    assert np.array_equal(power[:, :, 0], np.eye(2, dtype=np.int64))
    assert np.array_equal(power[:, :, 1], np.array([[0, 3], [0, 0]]))
    assert not power[:, :, 2].any()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_obstruction_holds_for_special_and_random_matrices(p):
    count, failures = deform.obstruction_sweep(p, samples=100, seed=7)
    assert count == 103
    assert failures == []


def test_obstruction_verdict_is_seed_independent():
    rng = np.random.default_rng(952)
    for seed in rng.integers(0, 10**6, size=4):
        count, failures = deform.obstruction_sweep(5, samples=10,
                                                   seed=int(seed))
        assert count == 13
        assert failures == []


def reference_sweep(p, samples, seed):
    """The per-witness path: one (d, d) draw and one (d, d) power each."""
    moduli = coeff.obstruction_ring(p)
    d = p - 1
    E = np.zeros((d, d), dtype=np.int64)
    E[0, d - 1] = 1
    want = np.stack([np.eye(d, dtype=np.int64), p * E, 0 * E], axis=2)
    draws = [("zero", np.zeros((d, d))), ("identity", np.eye(d)),
             ("all-ones", np.ones((d, d)))]
    rng = np.random.default_rng(seed)
    draws += [(f"random[{k}]", rng.integers(0, p, size=(d, d)))
              for k in range(samples)]
    out = []
    for label, A in draws:
        A = np.asarray(A, dtype=np.int64) % p
        base = np.zeros((d, d, 3), dtype=np.int64)
        base[:, :, 0] = np.eye(d, dtype=np.int64)
        base[:, :, 1] = E + p * A
        power = coeff.level_power(moduli, base, p)
        out.append((label, A, power,
                    "PASS" if np.array_equal(power, want) else "FAIL"))
    return out


def plant_failure(monkeypatch, p, A):
    """Make `coeff.level_power`, as `deform` calls it, spoil every power
    whose base is I + t(E + pA) for this one A."""
    real = coeff.level_power
    d = p - 1
    E = np.zeros((d, d), dtype=np.int64)
    E[0, d - 1] = 1

    def planted(moduli, stack, e):
        out = real(moduli, stack, e).copy()
        hit = (stack[..., 1] == E + p * A).all(axis=(-2, -1))
        out[hit, 0, 0, 0] += 1
        return out

    monkeypatch.setattr(coeff, "level_power", planted)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("chunks", [0, 1, 2.5])
def test_stacked_sweep_matches_the_per_witness_path(
        p, chunks, monkeypatch, capsys):
    # report bytes carry the count and the failures, so the chunked sweep
    # must see the per-witness draws in order.  A failure planted on one
    # reference draw must come back as exactly the labels of the equal
    # draws: with no draws (the plant hits a special matrix), with
    # exactly one chunk, and with a count that ends inside the third
    # chunk (the plant hits its last draw)
    chunk = deform.SWEEP_CHUNK_ELEMENTS // (p - 1) ** 2
    samples = int(chunks * chunk)
    ref = reference_sweep(p, samples, seed=7)
    assert all(verdict == "PASS" for *_, verdict in ref)
    target = ref[-1][1]
    want = [label for label, A, *_ in ref if np.array_equal(A, target)]
    plant_failure(monkeypatch, p, target)

    assert deform.obstruction_sweep(p, samples, seed=7) == (samples + 3, want)
    report = deform.scenario_report(
        deform.Scenario("obstruction", p=p, samples=samples, seed=7))
    (premise,) = report.premises
    assert premise.verdict == "FAIL"
    assert premise.computed["failures"] == want
    assert report.status == "DISCREPANCY"
    assert report.conclusion == ""
    code = cli.main(["obstruction", "--p", str(p), "--samples",
                     str(samples), "--seed", "7"])
    assert code == 1
    assert "DISCREPANCY" in capsys.readouterr().out


def test_obstruction_rejects_wrong_shape():
    with pytest.raises(ValueError, match="must be"):
        deform.obstruction_check(5, np.zeros((2, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# scenarios and reports


def test_family_report_builds_its_base_module_once(completed, monkeypatch):
    # the lift premises extend the T the Ext premises checked, not a copy
    completed("I", 2)
    built = []
    real = deform.base_module

    def counting(family, system):
        built.append(real(family, system))
        return built[-1]

    monkeypatch.setattr(deform, "base_module", counting)
    report = deform.scenario_report(deform.Scenario("family", family="I", d=2))
    assert report.status == "VERIFIED"
    assert len(built) == 1


def test_family_scenario_reports_five_passing_premises(completed):
    completed("I", 2)  # warm the shared cache
    report = deform.scenario_report(
        deform.Scenario("family", family="I", d=2)
    )
    assert report.scenario_id == "family-I-d2"
    assert report.status == "VERIFIED"
    assert [p.name for p in report.premises] == [
        "stable-endomorphisms",
        "self-extensions-degree-1",
        "self-extensions-degree-2",
        "flat-lift",
        "first-order-class",
    ]
    assert all(p.verdict == "PASS" for p in report.premises)
    assert report.premises[1].anchor == "Ext^1_Λ(T,T) ≅ k"
    assert report.conclusion == deform.CLAIM_FAMILY
    stable = report.premises[0].computed
    assert stable["stable_end_dim"] == 1
    assert stable["end_dim"] == 2  # the full endomorphism algebra is bigger
    assert stable["cover_summands"] == ["1"]


@pytest.mark.parametrize("p", [5, 7])
def test_group_scenario_solves_no_hom_space_above_dim_v(p, monkeypatch):
    """Every Hom space the group scenario solves has both modules of
    dimension at most dim V = p - 1: End(V), of dimension (p - 1)^2, is
    decomposed by a built and verified isomorphism, not by a search in
    its Hom space."""
    sizes = []
    solve = fdmod.hom_space

    def counted(M, N):
        sizes.append(max(M.dim, N.dim))
        return solve(M, N)

    monkeypatch.setattr(fdmod, "hom_space", counted)
    report = deform.scenario_report(deform.Scenario("group", p=p, samples=0))
    assert report.status == "VERIFIED"
    assert sizes and max(sizes) <= p - 1


def test_group_scenario_lifts_to_its_n_and_N_and_builds_rho_bar_once(
        monkeypatch):
    """The report's bytes record neither n nor N, so the rings built say
    how deep the scenario went: rho_bar over F_3 once, its Hensel lifts
    up to Z/81, and the mixed ring at n = 4 and N = 6."""
    rings = []
    build = groups.GroupRep.from_generators.__func__

    def recorded(cls, table, ring, gen_mats):
        rings.append(ring)
        return build(cls, table, ring, gen_mats)

    monkeypatch.setattr(groups.GroupRep, "from_generators",
                        classmethod(recorded))
    report = deform.scenario_report(
        deform.Scenario("group", p=3, n=4, N=6, samples=0))
    assert report.status == "VERIFIED"
    assert rings == [coeff.prime_field(3), coeff.trunc_witt(3, 2),
                     coeff.trunc_witt(3, 3), coeff.trunc_witt(3, 4),
                     coeff.mixed_deform(3, 4, 6)]


def test_group_scenario_p3_verifies():
    report = deform.scenario_report(deform.Scenario("group", p=3))
    assert report.status == "VERIFIED"
    assert len(report.premises) == 7
    assert all(p.verdict == "PASS" for p in report.premises)
    assert report.conclusion == deform.CLAIM_GROUP
    by_name = {p.name: p.computed for p in report.premises}
    assert by_name["endomorphisms-over-G"]["end_dim_over_G"] == 1
    assert by_name["first-cohomology"]["h1_dim"] == 1
    assert by_name["mixed-ring-representation"]["pairs_checked"] == 18 * 18
    assert by_name["obstruction-identity"]["failures"] == []


def test_obstruction_scenario_report():
    report = deform.scenario_report(
        deform.Scenario("obstruction", p=3, samples=5, seed=11)
    )
    assert report.scenario_id == "obstruction-p3"
    assert report.status == "VERIFIED"
    assert report.conclusion == ""
    assert report.premises[0].computed["witnesses"] == 8


def test_premises_must_carry_anchors():
    with pytest.raises(ValueError, match="anchor"):
        deform.Premise("nameless", "", "PASS")
    with pytest.raises(ValueError, match="verdict"):
        deform.Premise("odd", "x = y", "MAYBE")


def test_failed_premise_downgrades_and_withholds_the_conclusion():
    good = deform.Premise("a", "x = x", "PASS")
    bad = deform.Premise("b", "x = y", "FAIL", {"left": 1, "right": 2})
    report = deform.report("demo", [good, bad], "anything")
    assert report.status == "DISCREPANCY"
    assert report.conclusion == ""


def test_work_budget_admits_the_largest_level_count_and_refuses_past_it():
    heavy = deform.Scenario("group", p=7, N=64, samples=0)
    assert heavy.work_estimate() <= deform.WORK_CEILING
    deform.Scenario("obstruction", p=3, samples=761820)
    # exit 2 is pinned in test_cli; here, that the budget refuses.  The
    # sweeps were admitted while the estimate charged each witness 2^17
    # and L(L+1)/2 level blocks; at about 80 us, 0.7 ms and 4 ms a witness
    # on a 2-vCPU host they ran 26-40 s
    for kind, p, samples in (("group", 11, 0), ("obstruction", 509, 0),
                             ("obstruction", 13, 467251),
                             ("obstruction", 31, 57104),
                             ("obstruction", 61, 6373)):
        with pytest.raises(ValueError, match="budget"):
            deform.Scenario(kind, p=p, samples=samples)


@pytest.mark.parametrize("params, work", [
    (dict(kind="group", p=5), 93731456),
    (dict(kind="group", p=7, N=64), 84552573168),
    (dict(kind="group", p=7, n=10, N=17), 94410426096),
    (dict(kind="obstruction", p=3), 978912),
    (dict(kind="obstruction", p=31), 784242000),
    (dict(kind="obstruction", p=241, samples=0), 97144012800),
])
def test_work_estimate_charges_both_float_routes_alike(params, work):
    # float32 and float64 products cost one, int64 ones INT64_WORK_FACTOR;
    # the n = 10 mixed ring and the p = 241 sweep run on int64
    assert deform.Scenario(**params).work_estimate() == work


def test_scenario_validation():
    with pytest.raises(ValueError, match="kind"):
        deform.Scenario("mystery")
    with pytest.raises(ValueError, match="built-in"):
        deform.Scenario("family", family="I", d=7)
    with pytest.raises(ValueError, match="odd prime"):
        deform.Scenario("group", p=4)


# ---------------------------------------------------------------------------
# FAIL controls: each premise function fed a wrong input


@pytest.fixture(scope="module")
def TT():
    T = deform.base_module("I", deform.completed_system("I", 2))
    return fdmod.direct_sum([T, T])


def test_stable_endomorphisms_fails_on_t_plus_t(TT):
    """Stable End(T + T) is the 2 x 2 matrices over stable End(T) = k, so
    dimension 4; the full End(T) is 2-dimensional, hence 8 here."""
    premise = deform.stable_endomorphisms_premise(TT)
    assert (premise.name, premise.verdict) == ("stable-endomorphisms", "FAIL")
    assert premise.computed == {"stable_end_dim": 4, "end_dim": 8,
                                "dim_T": 10, "cover_summands": ["1", "1"]}


@pytest.mark.parametrize("family, d", deform.FAMILY_CASES)
def test_stable_endomorphisms_solves_hom_t_t_once(monkeypatch, family, d):
    T = deform.base_module(family, deform.completed_system(family, d))
    want = {"stable_end_dim": fdmod.stable_hom_dim(T, T),
            "end_dim": len(fdmod.hom_space(T, T))}
    hom_space, calls = fdmod.hom_space, []

    def counted(M, N):
        calls.append((M, N))
        return hom_space(M, N)

    monkeypatch.setattr(fdmod, "hom_space", counted)
    premise = deform.stable_endomorphisms_premise(T)
    assert sum(M is T and N is T for M, N in calls) == 1
    assert {key: premise.computed[key] for key in want} == want


@pytest.mark.parametrize("build,name,computed", [
    (deform.self_ext1_premise, "self-extensions-degree-1",
     {"resolution_route": 4, "extension_route": 4}),
    (deform.self_ext2_premise, "self-extensions-degree-2",
     {"resolution_route": 4}),
])
def test_self_extensions_fail_on_t_plus_t(TT, build, name, computed):
    """Ext^i is additive in both arguments: Ext^i(T + T, T + T) is four
    copies of Ext^i(T, T) = k, so dimension 4 by every route."""
    premise = build(TT)
    assert (premise.name, premise.verdict) == (name, "FAIL")
    assert premise.computed == computed


@pytest.fixture(scope="module")
def group_inputs():
    """Tables and representations of the p = 3 group scenario."""
    quot = groups.build_group(3, quotient=True)
    full = groups.build_group(3, quot.a_eps, quotient=False)
    rho_bar = groups.uniserial_representation(quot)
    return quot, full, rho_bar, groups.inflate(rho_bar, full)


def test_endomorphisms_over_g_fails_on_v_plus_v(group_inputs):
    """End_G(V + V) is the 2 x 2 matrices over End_G(V) = F_p: 4."""
    *_, rho_full = group_inputs
    VG = groups.rep_to_module(rho_full)
    premise = deform.endomorphisms_over_g_premise(fdmod.direct_sum([VG, VG]))
    assert (premise.name, premise.verdict) == ("endomorphisms-over-G", "FAIL")
    assert premise.computed == {"end_dim_over_G": 4, "dim_V": 4}


@pytest.mark.parametrize("j,omega,computed", [
    (1, False, {"ext1_resolution": 1, "ext1_extension_route": 1, "ext2": 1}),
    (2, True, {"ext1_resolution": 0, "ext1_extension_route": 0, "ext2": 1}),
    (3, True, {"ext1_resolution": 1, "ext1_extension_route": 1, "ext2": 0}),
])
def test_quotient_rigidity_fails_on_sums_with_a_simple(j, omega, computed):
    """Over the quotient at p = 5 (indices mod 4) the projective P_i is
    uniserial with radical layers S_i, S_(i+1), ..., S_i.  So
    Ext^1(S_i, S_k) = Hom(Omega S_i, S_k) is F_p exactly for k = i + 1,
    and Omega^2 S_i = soc P_(i+1) = S_(i+1) gives Ext^2 the same block.
    Omega is a stable equivalence: Ext^n(Omega X, Y) = Ext^(n+1)(X, Y),
    Ext^1(X, Omega Y) = stable Hom(X, Y) and Ext^2(X, Omega Y) =
    Ext^1(X, Y).  No diagonal block survives, since i + 1 != i mod 4,
    and of the cross blocks only these do:
    S_0 + S_1: Ext^1(S_0, S_1) and Ext^2(S_0, S_1), so 1 and 1;
    S_0 + Omega S_2: Ext^2(Omega S_2, S_0) = Ext^3(S_2, S_0) =
    Ext^1(S_3, S_0), so 0 and 1;
    S_0 + Omega S_3: Ext^1(Omega S_3, S_0) = Ext^2(S_3, S_0), so 1 and 0.
    """
    alg = groups.group_algebra(groups.build_group(5, quotient=True))
    second = fdmod.module_structure(alg.projective_module(0)).radical_layers[1]
    assert second == {1: 1}
    other = alg.simple_module(j)
    if omega:
        other = fdmod.syzygy(other)
    premise = deform.quotient_rigidity_premise(
        fdmod.direct_sum([alg.simple_module(0), other]))
    assert (premise.name, premise.verdict) == ("quotient-rigidity", "FAIL")
    assert premise.computed == computed


def test_endomorphism_decomposition_fails_against_t1_for_t0(group_inputs):
    """T_1 + P_1 has the dimension (p - 1)^2 = 4 of End(V) at p = 3, but
    composition factors S_1 three times and S_0 once, where End(V) has
    each twice: not isomorphic, although the socle of End(V) is still one
    copy of each simple."""
    _, _, rho_bar, _ = group_inputs
    EndV = groups.conjugation_module(rho_bar)
    premise = deform.endomorphism_decomposition_premise(EndV, (1,), (1,))
    assert (premise.name, premise.verdict) == (
        "endomorphism-decomposition", "FAIL")
    assert premise.computed == {
        "is_isomorphic": False,
        "socle_multiplicities": {"0": 1, "1": 1},
        "end_dim_over_quotient": 4,
    }


def test_endomorphism_decomposition_also_checks_the_socle(group_inputs):
    """S_0 + S_0 is isomorphic to itself, but its socle holds S_0 twice
    and S_1 not at all: the socle check fails on its own."""
    quot, *_ = group_inputs
    alg = groups.group_algebra(quot)
    M = fdmod.direct_sum([alg.simple_module(0), alg.simple_module(0)])
    premise = deform.endomorphism_decomposition_premise(M, (0, 0), ())
    assert premise.verdict == "FAIL"
    assert premise.computed["is_isomorphic"] is True
    assert premise.computed["socle_multiplicities"] == {"0": 2}


def test_first_cohomology_fails_on_the_trivial_module(group_inputs):
    """H^1(G, F_p) = Hom(G, F_p) = Hom(G^ab, F_p).  The scalar part acts
    on the plane by a and 1/a with a != 1, so the commutators fill F_p^2
    and G^ab = F_p^* has order p - 1, prime to p: every cocycle is 0, and
    on a trivial module so is every coboundary."""
    _, full, _, _ = group_inputs
    premise = deform.first_cohomology_premise(
        module_rep(full, groups.simple_module(full, 0)))
    assert (premise.name, premise.verdict) == ("first-cohomology", "FAIL")
    assert premise.computed == {"h1_dim": 0, "cocycle_dim": 0,
                                "coboundary_dim": 0}


def test_first_cohomology_fails_on_end_v_twice(group_inputs):
    """The premise counts H^1(G, End W) = Ext^1(W, W) for the W it is
    given.  Ext^1 is additive in each argument, so W = End(V) + End(V)
    has four times the 3 classes of Ext^1(End V, End V) at p = 3; B^1 is
    End_k(W) modulo End_G(W), 64 - 12, and Z^1 = B^1 + H^1."""
    _, full, _, rho_full = group_inputs
    M = groups.conjugation_module(rho_full)
    W = fdmod.direct_sum([M, M])
    ext = fdmod.ext_dim(M, M, 1).dim
    end_g = len(fdmod.hom_space(W, W))
    premise = deform.first_cohomology_premise(module_rep(full, W))
    assert premise.verdict == "FAIL"
    assert (ext, end_g) == (3, 12)
    assert premise.computed == {"h1_dim": 4 * ext,
                                "cocycle_dim": 64 - end_g + 4 * ext,
                                "coboundary_dim": 64 - end_g}


def test_first_order_class_fails_on_a_lift_of_t_plus_t(TT):
    """The built-in direction on the first copy of T lifts T + T flatly
    with a non-zero class, but Ext^1(T + T, T + T) has dimension 4."""
    name, i, j = deform._LIFT_DIRECTION["I"]
    flat, first = deform.lift_premises(
        deform.LiftCandidate(TT, {name: E(10, i, j)}))
    assert flat.verdict == "PASS"
    assert (first.name, first.verdict) == ("first-order-class", "FAIL")
    assert first.computed == {"ext1_dim": 4, "class_is_zero": False}


@pytest.mark.parametrize("route", ["ext_dim", "ext1_by_extensions"])
def test_premises_comparing_ext_routes_fail_when_the_routes_disagree(
        route, group_inputs, monkeypatch):
    """The resolution and extension routes are dual oracles; with either
    planted one too high, every premise that compares them fails."""
    real = getattr(fdmod, route)

    def off_by_one(*args):
        ext = real(*args)
        return dataclasses.replace(ext, dim=ext.dim + 1)

    monkeypatch.setattr(fdmod, route, off_by_one)
    T = deform.base_module("I", deform.completed_system("I", 2))
    V = groups.rep_to_module(group_inputs[2])
    for premise in (deform.ext_routes_premise(T, T),
                    deform.self_ext1_premise(T),
                    deform.quotient_rigidity_premise(V)):
        assert premise.verdict == "FAIL", premise.name


def mixed_generators(rep):
    return {name: rep.generator_matrix(name).copy()
            for name in ("sigma", "tau", "epsilon")}


def test_mixed_ring_fails_on_an_altered_sigma(group_inputs):
    """One altered entry of sigma breaks the full-table check; the premise
    reports the NotAHomomorphism, which names the first bad pair."""
    _, full, _, _ = group_inputs
    rep = mixed_rep_at(3, 2, 3, full)
    gens = mixed_generators(rep)
    gens["sigma"][0, 0, 0] += 1
    first = unchecked_rep(full, rep.moduli, gens).check_table()[0]
    with pytest.raises(groups.NotAHomomorphism) as exc:
        groups.GroupRep.from_generators(full, rep.moduli, gens)
    premise = deform.mixed_ring_premise(exc.value)
    assert (premise.name, premise.verdict) == (
        "mixed-ring-representation", "FAIL")
    assert f"pair {first}" in premise.computed["error"]
    assert deform.tangent_direction_premise(exc.value).verdict == "FAIL"


@pytest.mark.parametrize("level,scale,broken", [
    (0, 2, ["tau_power_p_is_identity", "eps_conjugates_tau_to_power"]),
    (2, 1, ["eps_conjugates_tau_to_power"]),
])
def test_mixed_ring_fails_on_a_tau_that_breaks_an_identity(
        level, scale, broken, group_inputs):
    """tau put together without the table check, at p = 3 with a = 2.
    tau = 2I + tE: tau^3 = 2I mod (3, t), not I, and epsilon conjugates
    tau to 2I + 2tE where tau^2 = 4I + tE.  tau = I + tE + t^2 I: every
    t-coefficient of tau^3 is a multiple of 3, so tau^3 = I, but epsilon
    fixes the t^2 part I while tau^(1/a) = tau^2 doubles it."""
    _, full, _, _ = group_inputs
    rep = mixed_rep_at(3, 2, 3, full)
    gens = mixed_generators(rep)
    gens["tau"][:, :, level] = scale * np.eye(2, dtype=np.int64)
    unchecked = unchecked_rep(full, rep.moduli, gens)
    premise = deform.mixed_ring_premise(unchecked)
    assert premise.verdict == "FAIL"
    assert [k for k in ("tau_power_p_is_identity",
                        "eps_conjugates_tau_to_power")
            if not premise.computed[k]] == broken


def test_mixed_ring_fails_on_a_singular_eps(group_inputs):
    """epsilon = 0 put together without the table check, at p = 3.  Then
    eps tau = tau^(1/a) eps = 0 holds, but a non-unit epsilon conjugates
    nothing, so the conjugation identity fails while tau^3 = I still holds."""
    _, full, _, _ = group_inputs
    rep = mixed_rep_at(3, 2, 3, full)
    gens = mixed_generators(rep)
    gens["epsilon"][:] = 0
    unchecked = unchecked_rep(full, rep.moduli, gens)
    premise = deform.mixed_ring_premise(unchecked)
    assert premise.computed["tau_power_p_is_identity"]
    assert not premise.computed["eps_conjugates_tau_to_power"]
    assert premise.verdict == "FAIL"


def test_tangent_direction_fails_when_tau_does_not_move(group_inputs):
    """With tau = I the representation is the inflation of the Hensel lift:
    still multiplicative, tau^p = I and eps tau eps^-1 = tau^(1/a) = I,
    but its t-part is 0, so the first-order deformation is trivial."""
    _, full, _, _ = group_inputs
    rep = mixed_rep_at(3, 2, 3, full)
    gens = mixed_generators(rep)
    gens["tau"] = np.eye(rep.dim, dtype=np.int64)
    still = groups.GroupRep.from_generators(full, rep.moduli, gens)
    assert deform.mixed_ring_premise(still).verdict == "PASS"
    premise = deform.tangent_direction_premise(still)
    assert (premise.name, premise.verdict) == ("tangent-direction", "FAIL")
    assert premise.computed == {"first_order_nontrivial": False}


# ---------------------------------------------------------------------------
# the group report's try catches mathematical failures only


def test_a_broken_invariant_in_the_chain_propagates(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("planted invariant failure")

    monkeypatch.setattr(deform, "hensel_chain", broken)
    with pytest.raises(ValueError, match="planted"):
        deform.scenario_report(deform.Scenario("group", p=3))
    assert cli.main(["group", "verify", "--p", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "planted invariant failure" in err


@pytest.mark.parametrize("target,error", [
    ("hensel_chain", deform.HenselObstruction(3, 1)),
    ("mixed_representation",
     groups.NotAHomomorphism("not a homomorphism: planted")),
])
def test_a_mathematical_failure_becomes_a_fail(
        target, error, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(deform, target, failing)
    report = deform.scenario_report(deform.Scenario("group", p=3))
    verdicts = {pr.name: pr.verdict for pr in report.premises}
    assert verdicts.pop("mixed-ring-representation") == "FAIL"
    assert verdicts.pop("tangent-direction") == "FAIL"
    assert set(verdicts.values()) == {"PASS"}
    assert report.premises[4].computed == {"error": str(error)}
    assert report.status == "DISCREPANCY"
    assert report.conclusion == ""
    assert cli.main(["group", "verify", "--p", "3"]) == 1
    assert "DISCREPANCY" in capsys.readouterr().out
