"""Acceptance gate: one test per criterion, timed where a budget is pinned.

Every expected number here was either computed by an independent oracle
before being frozen (dual Ext routes, the D^T D Cartan factorization, the
h1 parameter-space bounds) or is a structural fact re-derived on the fly
(table checks, exact polynomial identities).  Budgets are wall-clock
seconds measured around fresh computations, caches deliberately bypassed
where the criterion prices a whole case.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from defcert import cli, coeff, deform, fdmod, flinalg, groups, quiver

from conftest import hensel_chain_at, mixed_rep_at

FAMILY_CASE_BUDGET = 10.0
GROUP_BATTERY_BUDGET = 60.0
OBSTRUCTION_BUDGET = 5.0

FAMILY_COVERS = {"I": "1", "II": "0", "III": "2"}
FAMILY_DIMS = {"I": 5, "II": 4, "III": 5}


def _family_case(family, d):
    """Fresh completion and the three dimension checks, timed."""
    t0 = time.perf_counter()
    system = quiver.complete(quiver.builtin_family(family, d))
    T = deform.base_module(family, system)
    stable = fdmod.stable_hom_dim(T, T)
    e1 = fdmod.ext_dim(T, T, 1).dim
    e2 = fdmod.ext_dim(T, T, 2).dim
    cover = fdmod.projective_cover(T)
    elapsed = time.perf_counter() - t0
    assert stable == 1, f"{family} d={d}: stable End dim {stable}"
    assert e1 == 1, f"{family} d={d}: Ext^1 dim {e1}"
    assert e2 == 1, f"{family} d={d}: Ext^2 dim {e2}"
    assert T.dim == FAMILY_DIMS[family]
    assert [str(l) for l in cover.summand_labels] == [FAMILY_COVERS[family]]
    assert elapsed < FAMILY_CASE_BUDGET, f"{elapsed:.1f}s over budget"


def test_criterion_01_family_one_small_module_battery():
    for d in (2, 3):
        _family_case("I", d)


def test_criterion_02_families_two_and_three_battery():
    for d in (2, 3):
        _family_case("II", d)
    _family_case("III", 3)


def test_criterion_03_builtin_lifts_are_flat_with_nonzero_class():
    for family, d in deform.FAMILY_CASES:
        system = deform.completed_system(family, d)
        T = deform.base_module(family, system)
        lift = deform.builtin_lift(family, system)
        cert = deform.verify_quiver_lift(lift)
        assert cert.truncation_levels == (2, 3, 4)
        for name in T.algebra.generators:
            assert np.array_equal(lift.action_poly(name)[:, :, 0], T.mats[name])
        cls = deform.first_order_class(lift)
        assert not cls.representative_is_trivial(), (family, d)


def test_criterion_04_ext_routes_agree_on_fixture_pairs():
    for family, d in (("I", 2), ("II", 2), ("III", 3)):
        system = deform.completed_system(family, d)
        alg = fdmod.quiver_algebra(system)
        T = deform.base_module(family, system)
        simples = [alg.simple_module(v) for v in alg.grading_labels]
        pairs = [(T, T)] + [(T, S) for S in simples]
        pairs += [(A, B) for A in simples for B in simples]
        assert len(pairs) >= 10
        for M, N in pairs:
            resolution = fdmod.ext_dim(M, N, 1).dim
            extension = fdmod.ext1_by_extensions(M, N).dim
            assert resolution == extension, (family, M.dim, N.dim)


def test_criterion_05_rigidity_battery_over_three_primes():
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        quot = groups.build_group(p, quotient=True)
        full = groups.build_group(p, quot.a_eps, quotient=False)
        rho = groups.uniserial_representation(quot)
        V = groups.rep_to_module(rho)
        VG = groups.rep_to_module(groups.inflate(rho, full))
        assert len(fdmod.hom_space(VG, VG)) == 1, p
        assert fdmod.ext_dim(V, V, 1).dim == 0, p
        assert fdmod.ext1_by_extensions(V, V).dim == 0, p
        assert fdmod.ext_dim(V, V, 2).dim == 0, p
        EndV = groups.conjugation_module(rho)
        socle = fdmod.module_structure(EndV).socle
        assert socle == {i: 1 for i in range(p - 1)}, p
        alg = EndV.algebra
        summands = [alg.simple_module(0)] + [
            alg.projective_module(i) for i in range(1, p - 1)
        ]
        assert fdmod.is_isomorphic(
            EndV, fdmod.direct_sum(summands)
        ).isomorphic, p
        h1 = groups.h1_cocycles(groups.inflate(rho, full))
        assert h1.dim == 1, p
    elapsed = time.perf_counter() - t0
    assert elapsed < GROUP_BATTERY_BUDGET, f"{elapsed:.1f}s over budget"


def test_criterion_06_mixed_ring_representation_full_table():
    for p in (3, 5, 7):
        rep = mixed_rep_at(p, 2, 3)
        assert rep.moduli == coeff.mixed_deform(p, 2, 3)
        # construction already verified all |G|^2 products; do it again
        # through the public checker so this criterion stands alone
        assert rep.check_table() == [], p
        ids = deform.mixed_identity_checks(rep)
        assert ids["tau_power_p_is_identity"], p
        assert ids["eps_conjugates_tau_to_power"], p


def test_criterion_07_obstruction_identity_sweeps():
    for p in (3, 5, 7):
        t0 = time.perf_counter()
        report = deform.scenario_report(
            deform.Scenario("obstruction", p=p, samples=100, seed=7))
        elapsed = time.perf_counter() - t0
        (premise,) = report.premises
        assert premise.name == "obstruction-identity"
        assert premise.computed["witnesses"] == 103
        assert premise.computed["labels_head"] == [
            "zero", "identity", "all-ones"]
        assert premise.computed["failures"] == [], p
        assert premise.verdict == "PASS"
        assert elapsed < OBSTRUCTION_BUDGET, f"p={p}: {elapsed:.1f}s"


def test_criterion_08_projectives_follow_the_star_and_cartan_splits():
    for p in (3, 5, 7):
        qt = groups.build_group(p, quotient=True)
        alg = groups.group_algebra(qt)
        rows = []
        for i in range(p - 1):
            P = alg.projective_module(i)
            st = fdmod.module_structure(P)
            assert st.uniserial and P.dim == p, (p, i)
            assert st.radical_layer_dims == [1] * p, (p, i)
            seq = [next(iter(layer)) for layer in st.radical_layers]
            assert seq == [(i + k) % (p - 1) for k in range(p - 1)] + [i]
            dv = P.dimension_vector()
            rows.append([dv.get(j, 0) for j in range(p - 1)])
        cartan = np.array(rows)
        decomposition = np.vstack([
            np.eye(p - 1, dtype=np.int64),
            np.ones(p - 1, dtype=np.int64),
        ])
        assert np.array_equal(cartan, decomposition.T @ decomposition), p
        assert np.array_equal(
            cartan,
            np.eye(p - 1, dtype=np.int64) + 1,
        ), p


def test_criterion_09_hensel_chain_to_level_four():
    for p in (3, 5, 7):
        chain = hensel_chain_at(p, 4)  # raises on any obstruction
        assert [r.moduli[0] for r in chain] == [p, p**2, p**3, p**4]
        for rep in chain:
            assert rep.check_table() == [], p
        for lo, hi in zip(chain, chain[1:]):
            assert np.array_equal(hi.convert(lo.moduli).mats, lo.mats), p


def test_criterion_10_structural_identities_and_determinism(tmp_path):
    # projective homs match graded dimensions
    system = deform.completed_system("I", 2)
    alg = fdmod.quiver_algebra(system)
    T = deform.base_module("I", system)
    dv = T.dimension_vector()
    for v in alg.grading_labels:
        P = alg.projective_module(v)
        assert len(fdmod.hom_space(P, T)) == dv.get(v, 0)

    # dimension shift through the syzygy
    mods = [T] + [alg.simple_module(v) for v in alg.grading_labels]
    for M in mods:
        for N in mods:
            assert fdmod.ext_dim(M, N, 1).dim == fdmod.stable_hom_dim(
                fdmod.syzygy(M), N
            )

    # primitive-root independence of the group-side battery
    reports = {}
    for a in (2, 3):
        quot = groups.build_group(5, a, quotient=True)
        full = groups.build_group(5, a, quotient=False)
        rho = groups.uniserial_representation(quot)
        EndV = groups.conjugation_module(rho)
        reports[a] = {
            "end": len(fdmod.hom_space(
                groups.rep_to_module(groups.inflate(rho, full)),
                groups.rep_to_module(groups.inflate(rho, full)))),
            "socle": fdmod.module_structure(EndV).socle,
            "h1": groups.h1_cocycles(groups.inflate(rho, full)).dim,
        }
    assert reports[2] == reports[3]

    # seeded random base change leaves every reported dimension alone
    rng = np.random.default_rng(3361)
    for _ in range(3):
        g = np.zeros((T.dim, T.dim), dtype=np.int64)
        for v in range(len(alg.grading_labels)):
            idx = np.nonzero(T.block_of == v)[0]
            while True:
                blk = rng.integers(0, 2, size=(len(idx), len(idx)))
                if flinalg.inv(blk, 2) is not None:
                    break
            g[np.ix_(idx, idx)] = blk
        ginv = flinalg.inv(g, 2)
        moved = fdmod.FdModule(
            alg, T.block_of,
            {n: g @ T.mats[n] @ ginv % 2 for n in alg.generators},
        )
        assert fdmod.stable_hom_dim(moved, moved) == 1
        assert fdmod.ext_dim(moved, moved, 1).dim == 1
        assert fdmod.ext_dim(moved, moved, 2).dim == 1

    # the shipped fixture reads back as the built-in base module
    M = deform.base_module("II", deform.completed_system("II", 2))
    text = (pathlib.Path(__file__).parent / "data"
            / "quotient_module.qmod").read_text()
    back = fdmod.parse_module_fixture(text, M.algebra)
    assert np.array_equal(back.block_of, M.block_of)
    for name in M.algebra.generators:
        assert np.array_equal(back.mats[name], M.mats[name])

    # same seed, byte-identical report bundles
    argv = ["report", "all", "--family", "II", "--d", "2", "--p", "3",
            "--format", "json", "--seed", "0"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert cli.run_command(argv + ["--out", str(one)]) == 0
    assert cli.run_command(argv + ["--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    ids = [r["scenario"] for r in json.loads(one.read_text())["reports"]]
    assert ids == sorted(ids)
