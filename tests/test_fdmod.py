"""Modules over the completed presentations: Hom, Ext, covers, structure."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from defcert import deform, fdmod, flinalg, groups, quiver
from defcert.fdmod import (
    RelationViolated,
    direct_sum,
    ext1_by_extensions,
    ext_dim,
    hom_space,
    is_isomorphic,
    module_structure,
    parse_module_fixture,
    projective_cover,
    quiver_algebra,
    stable_hom_dim,
    syzygy,
    validate_module,
    zero_module,
)
from conftest import E, completed_family, small_module, uniserial


@pytest.fixture(scope="module")
def sysI():
    return completed_family("I", 2)


@pytest.fixture(scope="module")
def algI(sysI):
    return quiver_algebra(sysI)


@pytest.fixture(scope="module")
def T_I(sysI):
    return small_module("I", sysI)


# ---------------------------------------------------------------------------
# validation


def test_fixture_modules_validate():
    for family, d in [("I", 2), ("II", 2), ("III", 3)]:
        T = small_module(family, completed_family(family, d))
        assert validate_module(T) is None


# family I lists its vertices as (1, 0, 2), so block 0 is vertex 1 and
# block 1 is vertex 0; T_I's basis sits at vertices 1, 0, 1, 2, 0
T_I_BLOCKS = [0, 1, 0, 2, 1]


def test_perturbed_action_is_caught(algI):
    # the extra E(0,4) entry respects the grading but breaks a relation
    mats = {"beta": E(5, 1, 0), "gamma": E(5, 2, 1) + E(5, 0, 4),
            "delta": E(5, 3, 1), "eta": E(5, 4, 3)}
    with pytest.raises(RelationViolated) as info:
        fdmod.FdModule(algI, T_I_BLOCKS, mats)
    assert "rel[" in str(info.value.relation_id)


def test_deformation_direction_stays_flat(algI):
    # specializing the built-in one-parameter deformation at t = 1 still
    # satisfies every relation on the nose, so validation accepts it
    mats = {"beta": E(5, 1, 0), "gamma": E(5, 2, 1) + E(5, 2, 4),
            "delta": E(5, 3, 1), "eta": E(5, 4, 3)}
    M = fdmod.FdModule(algI, T_I_BLOCKS, mats)
    assert validate_module(M) is None


def test_gradient_violation_is_caught(algI):
    # beta must map the vertex-1 block into the vertex-0 block; basis
    # vector 0 sits at vertex 1 (block 0) and vector 1 at vertex 0
    with pytest.raises(RelationViolated) as info:
        fdmod.FdModule(algI, [0, 1], {"beta": E(2, 0, 1)})
    assert str(info.value.relation_id).startswith("grading:")


def test_quiver_handle_is_owned_by_its_system():
    system = quiver.complete(quiver.builtin_family("II", 2))
    alg = quiver_algebra(system)
    assert quiver_algebra(system) is alg
    fdmod.relation_terms(alg)  # the handle keeps its Fox terms
    ref = weakref.ref(alg)
    del system, alg
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# hom spaces and the projective identity


def test_hom_from_projective_counts_block_dim(algI, T_I):
    # dim Hom(P_v, M) equals the dimension of the v block of M
    targets = {
        "T": T_I,
        "omega": syzygy(T_I),
        "P0": algI.projective_module(0),
        "S2": algI.simple_module(2),
    }
    for M in targets.values():
        for i, v in enumerate(algI.grading_labels):
            P = algI.projective_module(v)
            assert len(hom_space(P, M)) == len(M.block_indices(i))


def test_hom_with_zero_module(algI, T_I):
    # an empty basis is still a (0, dim N, dim M) int64 stack
    z = zero_module(algI)
    for M, N in ((T_I, z), (z, T_I), (algI.simple_module(2), T_I)):
        homs = hom_space(M, N)
        assert homs.shape == (0, N.dim, M.dim) and homs.dtype == np.int64


def test_end_of_fixture_module_is_two_dimensional(T_I):
    # identity plus one endomorphism factoring through the projective cover
    basis = hom_space(T_I, T_I)
    assert len(basis) == 2
    ident = np.eye(5, dtype=np.int64)
    assert any(np.array_equal(b % 2, ident) for b in basis) or flinalg.in_span(
        np.column_stack([b.ravel() for b in basis]), ident.ravel(), 2
    )


def test_hom_basis_members_intertwine(algI, T_I):
    om = syzygy(T_I)
    for f in hom_space(om, T_I):
        for name in algI.generators:
            lhs = (T_I.mats[name] @ f) % 2
            rhs = (f @ om.mats[name]) % 2
            assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# covers and syzygies


def test_projective_cover_of_fixture(algI, T_I):
    cov = projective_cover(T_I)
    assert Counter(cov.summand_labels) == {1: 1}
    assert cov.projective.dim == 10
    assert flinalg.rank(cov.surjection, 2) == T_I.dim


def test_cover_of_semisimple(algI):
    M = direct_sum([algI.simple_module(0), algI.simple_module(0),
                    algI.simple_module(2)])
    cov = projective_cover(M)
    assert Counter(cov.summand_labels) == {0: 2, 2: 1}


def test_syzygy_dimension_count(algI, T_I):
    om = syzygy(T_I)
    assert om.dim == 10 - 5
    assert om.dimension_vector() == {1: 2, 0: 2, 2: 1}
    assert validate_module(om) is None
    # second syzygy continues the projective resolution
    om2 = syzygy(om)
    cov = projective_cover(om)
    assert om2.dim == cov.projective.dim - om.dim


def test_the_resolution_is_built_once_per_module(monkeypatch):
    system = completed_family("II", 2)
    T = small_module("II", system)
    assert projective_cover(T) is projective_cover(T)
    assert syzygy(T) is syzygy(T)
    builds = {"_build_cover": 0, "_build_syzygy": 0}
    for name in builds:
        def counted(M, _build=getattr(fdmod, name), _name=name):
            builds[_name] += 1
            return _build(M)
        monkeypatch.setattr(fdmod, name, counted)
    T = small_module("II", system)
    first = deform.ext_routes_premise(T, T)
    after_first = dict(builds)
    assert after_first["_build_cover"] > 0
    assert after_first["_build_syzygy"] > 0
    assert deform.ext_routes_premise(T, T) == first
    assert builds == after_first
    _, incl, cover = fdmod._syzygy_with_embedding(T)
    assert cover is projective_cover(T)
    for kept in (cover.surjection, incl):
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1
    assert builds == after_first


def _fresh(M):
    """A copy of M with nothing derived kept on it yet."""
    return fdmod.FdModule(M.algebra, M.block_of, M.mats, check=False)


def _answers(M, N):
    classes = (ext_dim(M, N, 1), ext_dim(M, N, 2), ext1_by_extensions(M, N))
    reps = [c.representative for c in classes]
    return ([c.dim for c in classes] + [stable_hom_dim(M, N)],
            [() if r is None else r for r in reps])


def _battery_modules(case):
    """The modules of one Ext battery: a family's T and its simples, or V
    and End(V) over the full table at p = 3."""
    if case == "V-EndV-p3":
        rho = groups.inflate(uniserial(3), groups.build_group(3))
        return [groups.rep_to_module(rho), groups.conjugation_module(rho)]
    T = deform.base_module(case[0], completed_family(*case))
    return [T] + [T.algebra.simple_module(v) for v in T.algebra.simple_labels]


def _kept_arrays(M):
    """Every array M keeps for its resolution and its extensions."""
    kept = [M._socle, M._subwords, *M._yoneda.values()]
    if M._cover is not None:
        kept.append(M._cover.surjection)
    if M._syzygy is not None:
        kept.append(M._syzygy[1])
    return [a for a in kept if a is not None]


def test_kept_resolutions_give_the_answers_of_cold_modules():
    for case in list(deform.FAMILY_CASES) + ["V-EndV-p3"]:
        mods = _battery_modules(case)
        pairs = [(M, N) for M in mods for N in mods]
        order = np.random.default_rng(23).permutation(len(pairs))
        for k in np.concatenate([order, order[::-1]]):
            M, N = pairs[k]
            dims, reps = _answers(M, N)
            cold_dims, cold_reps = _answers(_fresh(M), _fresh(N))
            assert dims == cold_dims, (case, k, dims, cold_dims)
            for rep, cold in zip(reps, cold_reps):
                assert len(rep) == len(cold)
                for a, b in zip(rep, cold):
                    assert np.array_equal(a, b)
        assert all(M._subwords is not None and M._yoneda for M in mods)
        for M in mods:
            C = M.coordinates()
            for kept in [*_kept_arrays(M), M.block_of, C.C, C.C_inv,
                         C.labels, *C.mats.values()]:
                with pytest.raises(ValueError, match="read-only"):
                    kept[...] = 0


def test_a_module_keeps_its_own_copy_of_the_grading(T_I):
    block_of = T_I.block_of.copy()
    M = fdmod.FdModule(T_I.algebra, block_of, T_I.mats)
    block_of += 1
    assert np.array_equal(M.block_of, T_I.block_of)


def test_kept_stacks_and_yoneda_bases_hold_no_other_module():
    """N keeps its subword stack and its Yoneda bases of Hom(P_l, N) from
    a pair with M; they hold neither M nor M's assembled cover P."""
    T = small_module("II", completed_family("II", 2))
    M, N = _fresh(T), _fresh(T)
    ext_dim(M, N, 1)
    ext1_by_extensions(M, N)
    assert N._subwords is not None and N._yoneda
    refs = [weakref.ref(M), weakref.ref(projective_cover(M).projective)]
    del M
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert {type(a) for a in _kept_arrays(N)} == {np.ndarray}


def test_the_cover_self_checks_are_broken_invariants(monkeypatch, algI):
    top = fdmod.top_pick
    M = direct_sum([algI.simple_module(0), algI.simple_module(0),
                    algI.simple_module(2)])
    monkeypatch.setattr(fdmod, "top_pick", lambda M: top(M)[:-1])
    with pytest.raises(RuntimeError, match="onto"):
        projective_cover(M)
    monkeypatch.setattr(fdmod, "top_pick", lambda M: top(M) + top(M)[:1])
    with pytest.raises(RuntimeError, match="not minimal"):
        projective_cover(M)
    # a failed build keeps nothing, so the next call builds again
    monkeypatch.setattr(fdmod, "top_pick", top)
    assert Counter(projective_cover(M).summand_labels) == {0: 2, 2: 1}


# ---------------------------------------------------------------------------
# ext


def test_ext_frozen_values(T_I):
    assert ext_dim(T_I, T_I, 1).dim == 1
    assert ext_dim(T_I, T_I, 2).dim == 1
    assert stable_hom_dim(T_I, T_I) == 1


def test_ext_degree_validation(T_I):
    with pytest.raises(ValueError):
        ext_dim(T_I, T_I, 0)
    with pytest.raises(ValueError):
        ext_dim(T_I, T_I, 3)


def test_ext_of_projective_vanishes(algI, T_I):
    P = algI.projective_module(1)
    assert ext_dim(P, T_I, 1).dim == 0
    assert ext_dim(P, T_I, 2).dim == 0


def test_dimension_shift(algI, T_I):
    # Ext^1(M, N) = stable Hom(Omega M, N), the algebra being symmetric
    mods = {
        "T": T_I,
        "S1": algI.simple_module(1),
        "S0": algI.simple_module(0),
        "S2": algI.simple_module(2),
    }
    for M in mods.values():
        for N in mods.values():
            assert ext_dim(M, N, 1).dim == stable_hom_dim(syzygy(M), N)
            assert ext_dim(M, N, 2).dim == ext_dim(syzygy(M), N, 1).dim


def test_ext_oracle_equivalence():
    # resolution route vs cocycle-space route, zero tolerance
    for family, d in [("I", 2), ("II", 2)]:
        sys = completed_family(family, d)
        alg = quiver_algebra(sys)
        T = small_module(family, sys)
        mods = [T] + [alg.simple_module(v) for v in alg.grading_labels]
        mods.append(syzygy(T))
        for M in mods:
            for N in mods:
                a = ext_dim(M, N, 1).dim
                b = ext1_by_extensions(M, N).dim
                assert a == b, (family, repr(M), repr(N), a, b)


@pytest.mark.parametrize("family,d", deform.FAMILY_CASES)
def test_doubled_base_module_counts_four_of_everything(family, d):
    """Additivity control on a module that is not rigid.

    For every built-in, stable End(T), Ext^1(T, T) and Ext^2(T, T) are one-
    dimensional (the family premises).  All three are additive in each
    argument, so on T + T each splits into 2 x 2 copies of T's: 4 each,
    by both Ext^1 routes.
    """
    system = completed_family(family, d)
    T = deform.base_module(family, system)
    TT = direct_sum([T, T])
    for M, want in ((T, 1), (TT, 4)):
        assert stable_hom_dim(M, M) == want
        assert ext_dim(M, M, 1).dim == want
        assert ext1_by_extensions(M, M).dim == want
        assert ext_dim(M, M, 2).dim == want


def test_ext_class_representatives(T_I):
    cls = ext_dim(T_I, T_I, 1)
    assert cls.dim == 1
    assert not cls.representative_is_trivial()
    triv = ext_dim(T_I.algebra.projective_module(1), T_I, 1)
    assert triv.dim == 0
    cocycle = ext1_by_extensions(T_I, T_I)
    assert cocycle.dim == 1
    assert not cocycle.representative_is_trivial()


def test_ext_without_relations():
    """One arrow a: 0 -> 1 and no relations: the relation system is empty."""
    spec = quiver.QuiverSpec(3, (0, 1), {"a": (0, 1)})
    alg = quiver_algebra(quiver.complete(spec))
    S0, S1 = alg.simple_module(0), alg.simple_module(1)
    for M, N, want in ((S0, S1, 1), (S1, S0, 0)):
        assert ext_dim(M, N, 1).dim == want
        assert ext1_by_extensions(M, N).dim == want


def test_ext_over_an_algebra_without_arrows():
    """k itself (one vertex, no arrows): no theta slots and no Ext^1."""
    alg = quiver_algebra(quiver.complete(quiver.QuiverSpec(3, ["v"], {})))
    S = alg.simple_module("v")
    M = direct_sum([S, S])
    assert fdmod.extension_coboundaries(M, M)[0].shape == (0, 2, 2)
    assert ext_dim(M, M, 1).dim == ext1_by_extensions(M, M).dim == 0


def test_hom_over_an_algebra_without_arrows():
    """On k^2 over k every linear map intertwines and each one factors
    through the projective k^2 itself."""
    alg = quiver_algebra(quiver.complete(quiver.QuiverSpec(3, ["v"], {})))
    S = alg.simple_module("v")
    M = direct_sum([S, S])
    assert len(hom_space(M, M)) == 4
    assert stable_hom_dim(M, M) == 0
    assert is_isomorphic(M, M).isomorphic
    assert ext_dim(M, M, 1).dim == ext1_by_extensions(M, M).dim == 0
    assert ext_dim(M, M, 2).dim == 0


def _reference_coboundaries(M, N, slots):
    """a_N E - E a_M for each graded unit E, read on the slots, by loops."""
    cols = []
    for k in range(N.dim):
        for l in range(M.dim):
            if N.block_of[k] != M.block_of[l]:
                continue
            unit = np.zeros((N.dim, M.dim), dtype=np.int64)
            unit[k, l] = 1
            theta = np.stack([N.mats[g] @ unit - unit @ M.mats[g]
                              for g in M.algebra.generators])
            cols.append(theta[slots] % M.p)
    return np.array(cols, dtype=np.int64).reshape(-1, slots.sum()).T


def test_extension_coboundaries_match_a_reference_loop(algI, T_I):
    V = groups.rep_to_module(uniserial(5))
    for M, N in ((T_I, T_I), (T_I, algI.simple_module(0)), (V, V)):
        slots, cob = fdmod.extension_coboundaries(M, N)
        assert slots.shape == (len(M.algebra.generators), N.dim, M.dim)
        for g, name in enumerate(M.algebra.generators):
            mask = fdmod.arrow_block_mask(M, N, name)
            assert np.all(slots[g] == (True if mask is None else mask))
        assert np.array_equal(cob, _reference_coboundaries(M, N, slots))
    assert slots.all()  # on a group algebra every entry is a slot


def _builder_agreement_modules(case):
    if isinstance(case, int):  # the group at p = case
        rep = uniserial(case)
        alg = groups.group_algebra(rep.table)
        return ([groups.rep_to_module(rep)]
                + [alg.simple_module(i) for i in range(case - 1)]
                + [alg.projective_module(i) for i in range(case - 1)])
    T = small_module(case, completed_family(case, 2))
    return [T] + [T.algebra.simple_module(v) for v in T.algebra.simple_labels]


@pytest.mark.parametrize("case", ["I", "II", 3, 5])
def test_hom_space_is_the_kernel_of_the_extension_coboundaries(case):
    # both read the one coboundary map: hom_space on the label-matching
    # units of the component coordinates (the epsilon-eigenvectors on the
    # group), the extension route on the graded units of the unit basis,
    # read on the slots, where every value of a graded unit lies
    mods = _builder_agreement_modules(case)
    for M in mods:
        for N in mods:
            homs = hom_space(M, N)
            assert homs.dtype == np.int64
            assert homs.shape[1:] == (N.dim, M.dim)
            cob = fdmod.extension_coboundaries(M, N)[1]
            assert len(homs) == cob.shape[1] - flinalg.rank(cob, M.p)


def test_submodule_needs_every_generator_stable(T_I):
    # span{db} is kept by beta, gamma and delta; only eta, the last
    # generator, sends db to hdb outside it
    assert T_I.algebra.generators[-1] == "eta"
    db = np.eye(T_I.dim, dtype=np.int64)[:, [3]]
    assert fdmod._submodule_from_columns(T_I, db) is None


# ---------------------------------------------------------------------------
# structure reports


def test_structure_of_fixture_module(T_I):
    st = module_structure(T_I)
    assert st.radical_layer_dims == [1, 1, 2, 1]
    assert st.top == {1: 1}
    assert st.socle == {1: 1, 0: 1}
    assert st.composition_factors == {1: 2, 0: 2, 2: 1}
    assert not st.uniserial
    assert sum(st.composition_factors.values()) == 5  # the length


def test_structure_of_projectives(algI):
    for v, layers in [(1, [1, 1, 2, 1, 1, 1, 1, 1, 1]),
                      (0, [1, 2, 2, 2, 2, 2, 2, 2, 1]),
                      (2, [1, 1, 2, 1, 1, 1, 1, 1, 1])]:
        st = module_structure(algI.projective_module(v))
        assert st.radical_layer_dims == layers
        assert st.top == {v: 1}
        assert st.socle == {v: 1}


def test_syzygy_of_fixture_is_uniserial(T_I):
    st = module_structure(syzygy(T_I))
    assert st.uniserial
    assert st.radical_layer_dims == [1, 1, 1, 1, 1]


def test_submodule_refuses_a_column_across_two_blocks(T_I):
    i = 0
    j = int(np.nonzero(T_I.block_of != T_I.block_of[i])[0][0])
    cols = np.eye(T_I.dim, dtype=np.int64)
    cols[j, i] = 1  # column i is e_i + e_j; the span is still all of T_I
    with pytest.raises(ValueError, match="one grading block"):
        fdmod._submodule_from_columns(T_I, cols)


def _ungraded_column(M):
    """One vector from each of the first two nonempty components, summed."""
    co = M.coordinates()
    _, firsts = np.unique(co.labels, return_index=True)
    return co.C[:, firsts[:2]].sum(axis=1, keepdims=True) % M.p


@pytest.mark.parametrize("side", ["quiver", "group"])
def test_section_count_refuses_an_ungraded_span(side, T_I):
    if side == "quiver":
        M = T_I
    else:
        M = groups.rep_to_module(uniserial(5))
    zero = np.zeros((M.dim, 0), dtype=np.int64)
    socle = fdmod.section_label_dims_quotient(
        M, fdmod.socle_columns(M), zero)
    assert socle == module_structure(M).socle
    with pytest.raises(ValueError, match="not graded"):
        fdmod.section_label_dims_quotient(
            M, _ungraded_column(M), zero)


def test_random_search_miss_is_not_definitive(monkeypatch):
    table = groups.build_group(5, quotient=True)
    EndV = groups.conjugation_module(
        groups.uniserial_representation(table))
    alg = EndV.algebra
    target = direct_sum([alg.simple_module(0)] + [
        alg.projective_module(i) for i in range(1, 4)])
    res = is_isomorphic(EndV, target)
    assert (res.isomorphic, res.method, res.definitive) == (
        True, "random", True)
    monkeypatch.setattr(fdmod, "_invertible_in_span", lambda *a: None)
    res = is_isomorphic(EndV, target)
    assert (res.isomorphic, res.witness, res.method, res.definitive) == (
        False, None, "random", False)


def _end_v(p):
    """End(V) over the quotient table at p, and the claimed summands of
    T_0 + P_1 + ... + P_(p-2) as (simples, projectives)."""
    EndV = groups.conjugation_module(uniserial(p))
    return EndV, ((0,), tuple(range(1, p - 1)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sum_isomorphism_agrees_with_the_hom_space_search(p):
    """The built witness and the Hom-space search give the same verdict on
    End(V), for the claimed sum and for T_1 in place of T_0."""
    EndV, (simples, projectives) = _end_v(p)
    alg = EndV.algebra
    for claim in (simples, (1,)):
        built = fdmod.sum_isomorphism(EndV, claim, projectives)
        N = direct_sum([alg.simple_module(j) for j in claim]
                       + [alg.projective_module(i) for i in projectives])
        searched = is_isomorphic(EndV, N)
        assert built.definitive and searched.definitive
        assert built.isomorphic == searched.isomorphic == (claim == (0,))
        if built.isomorphic:  # the witness maps the sum onto End(V)
            assert fdmod._verify_witness(N, EndV, built.witness)


@pytest.mark.parametrize("simples,projectives,method", [
    ((0,), (1, 2), "dimension"),  # P_3 dropped
    ((0, 0), (1, 2, 3), "dimension"),  # an extra T_0
    ((), (0, 1, 2), "dimension"),  # T_0 dropped, P_3 for P_0
    ((1,), (1, 2, 3), "top"),  # T_1 for T_0
])
def test_sum_isomorphism_refuses_a_wrong_sum_definitively(
        simples, projectives, method):
    EndV, _ = _end_v(5)
    res = fdmod.sum_isomorphism(EndV, simples, projectives)
    assert (res.isomorphic, res.witness, res.method, res.definitive) == (
        False, None, method, True)


def test_sum_isomorphism_refuses_a_different_socle_definitively():
    """At p = 5 (labels mod 4) P_i is uniserial with layers S_i, ...,
    S_(i+3), S_i, so rad^2 P_0 + rad^2 P_1 has tops S_2, S_3 and socles
    S_0, S_1; T_2 + P_3 has the same dimension and top, but socles S_2
    and S_3."""
    alg = groups.group_algebra(groups.build_group(5, quotient=True))
    M = direct_sum([
        fdmod._submodule_from_columns(P, fdmod._radical_filtration(P)[2])
        for P in (alg.projective_module(0), alg.projective_module(1))])
    res = fdmod.sum_isomorphism(M, (2,), (3,))
    assert (res.isomorphic, res.method, res.definitive) == (
        False, "socle", True)


def _rad_vector_of_label(M, label):
    """A vector of M's component `label` inside rad M: its socle vector,
    which at p = 5 lies in the socle of the summand P_label."""
    co, p = M.coordinates(), M.p
    on = co.labels == label
    v = flinalg.matmul_mod(co.C[:, on], flinalg.matmul_mod(
        co.C_inv, fdmod.socle_columns(M), p)[on], p)[:, 0]
    assert flinalg.in_span(fdmod.radical_image_columns(M), v, p)
    return v


def _tampered_yoneda(monkeypatch, EndV):
    columns = groups.GroupAlgebra.yoneda_columns

    def tampered(self, label, N, x):
        out = columns(self, label, N, x).copy()
        out[0, 0] = (out[0, 0] + 1) % N.p
        return out

    monkeypatch.setattr(groups.GroupAlgebra, "yoneda_columns", tampered)


def _moved_top_pick(monkeypatch, EndV):
    picks = fdmod.top_pick

    def moved(N):
        out = picks(N)
        if N is EndV:
            out = [(label, _rad_vector_of_label(N, 1) if label == 1 else x)
                   for label, x in out]
        return out

    monkeypatch.setattr(fdmod, "top_pick", moved)


@pytest.mark.parametrize("mutant", [_tampered_yoneda, _moved_top_pick])
def test_sum_isomorphism_mutants_are_not_definitive(mutant, monkeypatch):
    """A tampered witness column, or a top pick moved into rad M, leaves
    the invariants as they are but fails the witness check: that proves
    nothing, so the result is not definitive and the premise raises."""
    EndV, (simples, projectives) = _end_v(5)
    mutant(monkeypatch, EndV)
    res = fdmod.sum_isomorphism(EndV, simples, projectives)
    assert (res.isomorphic, res.witness, res.method, res.definitive) == (
        False, None, "constructed", False)
    with pytest.raises(RuntimeError, match="failed its verification"):
        deform.endomorphism_decomposition_premise(EndV, simples, projectives)


def test_one_loop_projective_structure():
    from defcert.quiver import QuiverSpec, complete

    spec = QuiverSpec(2, ["v"], {"x": ("v", "v")}, [{("x", "x"): 1}])
    sys = complete(spec, cap=8)
    alg = quiver_algebra(sys)
    P = alg.projective_module("v")
    st = module_structure(P)
    assert st.radical_layer_dims == [1, 1]
    assert st.uniserial
    S = alg.simple_module("v")
    assert ext_dim(S, S, 1).dim == 1
    assert ext_dim(S, S, 2).dim == 1


# ---------------------------------------------------------------------------
# isomorphism testing


def graded_base_change(M, rng):
    """Conjugate the action by a random invertible grading-preserving map."""
    p = M.p
    n = M.dim
    while True:
        U = np.zeros((n, n), dtype=np.int64)
        for i in range(len(M.algebra.grading_labels)):
            idx = M.block_indices(i)
            if idx.size == 0:
                continue
            blk = rng.integers(0, p, (idx.size, idx.size))
            U[np.ix_(idx, idx)] = blk
        if flinalg.inv(U, p) is not None:
            break
    Uinv = flinalg.inv(U, p)
    mats = {
        name: (U @ M.mats[name] @ Uinv) % p
        for name in M.algebra.generators
    }
    return fdmod.FdModule(M.algebra, M.block_of.copy(), mats)


def test_isomorphic_after_base_change(T_I):
    rng = np.random.default_rng(1234)
    for _ in range(5):
        other = graded_base_change(T_I, rng)
        res = is_isomorphic(T_I, other)
        assert res.isomorphic and res.definitive
        W = res.witness
        for name in T_I.algebra.generators:
            assert np.array_equal(
                (other.mats[name] @ W) % 2, (W @ T_I.mats[name]) % 2
            )


def test_isomorphism_respects_summand_order(algI, T_I):
    S0 = algI.simple_module(0)
    a = direct_sum([T_I, S0])
    b = direct_sum([S0, T_I])
    res = is_isomorphic(a, b)
    assert res.isomorphic and res.definitive


def test_failed_witness_check_raises_under_any_optimisation(monkeypatch, T_I):
    # a plain assert would vanish under python -O and pass a bad witness on
    monkeypatch.setattr(fdmod, "_verify_witness", lambda *a: False)
    with pytest.raises(RuntimeError, match="witness"):
        is_isomorphic(T_I, T_I)


def test_non_isomorphic_same_dimension_vector(algI):
    # uniserial length-2 module vs the split sum of its factors; basis
    # vector 0 sits at vertex 1 (block 0) and vector 1 at vertex 0
    M = fdmod.FdModule(algI, [0, 1], {"beta": E(2, 1, 0)})
    N = fdmod.FdModule(algI, [0, 1], {})
    assert M.dimension_vector() == N.dimension_vector()
    res = is_isomorphic(M, N)
    assert not res.isomorphic and res.definitive


def test_non_isomorphic_different_dimensions(algI, T_I):
    assert not is_isomorphic(T_I, algI.simple_module(1)).isomorphic


def test_ext_invariant_under_base_change(T_I):
    rng = np.random.default_rng(777)
    other = graded_base_change(T_I, rng)
    assert ext_dim(other, other, 1).dim == 1
    assert ext_dim(other, other, 2).dim == 1
    assert stable_hom_dim(other, other) == 1
    assert ext1_by_extensions(other, other).dim == 1


# ---------------------------------------------------------------------------
# fixture text


T_I_TEXT = """\
# T_I on the basis (e1, b, gb, db, hdb)
dim: 5
vertices: 1 0 1 2 0
matrix beta:
  0 0 0 0 0
  1 0 0 0 0
  0 0 0 0 0
  0 0 0 0 0
  0 0 0 0 0
matrix gamma:
  0 0 0 0 0
  0 0 0 0 0
  0 1 0 0 0
  0 0 0 0 0
  0 0 0 0 0

matrix delta:  # blank lines and comments are skipped
  0 0 0 0 0
  0 0 0 0 0
  0 0 0 0 0
  0 1 0 0 0
  0 0 0 0 0
matrix eta:
  0 0 0 0 0
  0 0 0 0 0
  0 0 0 0 0
  0 0 0 0 0
  0 0 0 1 0
"""


def test_module_fixture_round_trip(algI, T_I):
    # 2^64 + 1 in place of each entry 1 is the same residue, read on the
    # Python int before any int64 array
    head, body = T_I_TEXT.split("matrix", 1)
    big = head + "matrix" + body.replace(" 1", f" {2**64 + 1}")
    for text in (T_I_TEXT, big):
        again = parse_module_fixture(text, algI)
        assert np.array_equal(again.block_of, T_I.block_of)
        for name in algI.generators:
            assert np.array_equal(again.mats[name], T_I.mats[name])


def test_module_fixture_omitted_generators_are_zero(algI):
    text = "dim: 3\nvertices: 1 0 2\n"
    M = parse_module_fixture(text, algI)
    assert M.dim == 3
    for name in algI.generators:
        assert not M.mats[name].any()


def test_module_fixture_errors(algI):
    with pytest.raises(ValueError):
        parse_module_fixture("vertices: 1 0\n", algI)
    with pytest.raises(ValueError):
        parse_module_fixture("dim: 2\nvertices: 1\n", algI)
    with pytest.raises(ValueError):
        parse_module_fixture(
            "dim: 1\nvertices: 1\nmatrix nosuch:\n  0\n", algI
        )
    # a header given twice is refused at its second line, not overwritten
    beta = "matrix beta:\n  0 0\n  1 0\n"
    for text, message in [
        ("dim: 2\nvertices: 1 0\n" + beta + beta,
         "line 6: second matrix beta:"),
        ("dim: 2\nvertices: 1 0\ndim: 2\n", "line 3: second dim:"),
        ("dim: 2\nvertices: 1 0\nvertices: 0 1\n",
         "line 3: second vertices:"),
        ("dim: 1\nvertices: 7\n", "line 2: unknown vertex 7"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_module_fixture(text, algI)


def _kronecker_hom_basis(M, N):
    """Reference Hom(M, N): vec(F) killed by a_N (x) I - I (x) a_M^T.

    Row-major vec(a_N F - F a_M) is that matrix times vec(F).  Every
    generator and every entry of F enters; no component coordinates.
    """
    eye_m = np.eye(M.dim, dtype=np.int64)
    eye_n = np.eye(N.dim, dtype=np.int64)
    sysmat = np.concatenate([
        np.kron(N.mats[g], eye_m) - np.kron(eye_n, M.mats[g].T)
        for g in M.algebra.generators
    ])
    return flinalg.nullspace(sysmat % M.p, M.p)


@pytest.mark.parametrize("p", [3, 5])
def test_group_and_naive_hom_bases_span_the_same_space(p):
    rep = uniserial(p)
    alg = groups.group_algebra(rep.table)
    mods = [groups.rep_to_module(rep), groups.conjugation_module(rep)] + [
        alg.projective_module(i) for i in range(p - 1)
    ]
    for M in mods:
        for N in mods:
            homs = [f.ravel() for f in hom_space(M, N)]
            ref = _kronecker_hom_basis(M, N)
            both = np.column_stack(homs + list(ref.T))
            assert len(homs) == ref.shape[1] == flinalg.rank(both, p)


def test_hom_between_end_v_and_its_decomposition_at_p7():
    """Hom between End V and its claimed decomposition at p = 7, as an
    oracle beside the decomposition premise, which builds its isomorphism
    with `fdmod.sum_isomorphism` and solves none of these Hom spaces.

    End V is isomorphic to X = T_0 + P_1 + ... + P_5 over the quotient
    group, so all three have the dimension of End(X).  dim Hom(P_i, Y) is
    the multiplicity of S_i in Y, and each 7-dimensional uniserial P_i
    has S_i twice (top and socle) and every other label once: Hom(P_i, P_j)
    is 2 for i = j and 1 otherwise, 5 * 2 + 20 = 30 over i, j >= 1.
    End(T_0) adds 1, and the cross terms vanish because S_0 is neither
    the top nor the socle of any P_i with i >= 1.  Total 31.
    """
    p = 7
    rep = uniserial(p)
    alg = groups.group_algebra(rep.table)
    EndV = groups.conjugation_module(rep)
    total = direct_sum([alg.simple_module(0)] + [
        alg.projective_module(i) for i in range(1, p - 1)])
    for M, N in [(EndV, total), (total, EndV), (EndV, EndV)]:
        basis = hom_space(M, N)
        assert len(basis) == 31
        for f in basis:
            for g in alg.generators:
                assert not np.any((flinalg.matmul_mod(N.mats[g], f, p)
                                   - flinalg.matmul_mod(f, M.mats[g], p)) % p)
        vecs = np.column_stack([f.ravel() for f in basis])
        assert flinalg.rank(vecs, p) == 31


# ---------------------------------------------------------------------------
# the relation evaluator


def _reference_relation_values(algebra, stacks, moduli, dim):
    """Each relation by plain per-level convolution, words from the
    identity."""
    L = len(moduli)

    def convolve(a, b):
        lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
        out = np.zeros(lead + (dim, dim, L), dtype=np.int64)
        for level in range(L):
            for i in range(level + 1):
                out[..., level] += a[..., i] @ b[..., level - i]
        return out % np.array(moduli)

    ident = np.zeros((dim, dim, L), dtype=np.int64)
    ident[:, :, 0] = np.eye(dim, dtype=np.int64)
    out = []
    for rel_id, combo in algebra.relation_items():
        acc = ident * 0
        for c, word in combo:
            term = ident
            for name in word:
                term = convolve(term, stacks[name])
            acc = (acc + c * term) % np.array(moduli)
        out.append((rel_id, acc))
    return out


def _a2_algebra():
    spec = quiver.QuiverSpec(3, (0, 1), {"a": (0, 1)})
    return quiver_algebra(quiver.complete(spec))


@pytest.mark.parametrize("ring", ["trunc_poly", "mixed"])
@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("lead", [(), (4,), "first"])
@pytest.mark.parametrize("which", ["I", "A2", "group-p3"])
def test_relation_values_match_a_per_level_reference(which, lead, levels,
                                                     ring):
    alg = {"I": lambda: quiver_algebra(completed_family("I", 2)),
           "A2": _a2_algebra,
           "group-p3": lambda: groups.group_algebra(
               groups.build_group(3, quotient=False))}[which]()
    # F_p[t]/(t^L), or moduli p^L, ..., p^2, p falling level by level
    p, dim = alg.p, 3
    moduli = tuple(p ** (levels - l if ring == "mixed" else 1)
                   for l in range(levels))
    rng = np.random.default_rng(levels)
    stacks = {}
    for k, name in enumerate(alg.generators):
        # "first": only the first generator carries the leading axis
        shape = (4,) if lead == "first" and k == 0 else (
            () if lead == "first" else lead)
        stacks[name] = rng.integers(0, 2**20, size=shape + (
            dim, dim, levels)) % np.array(moduli)
    got = list(fdmod.relation_values(alg, stacks, moduli, dim))
    want = _reference_relation_values(alg, stacks, moduli, dim)
    assert [rid for rid, _ in got] == [rid for rid, _ in want]
    for (_, value), (_, ref) in zip(got, want):
        assert value.shape == ref.shape
        assert np.array_equal(value, ref)


def test_first_violation_takes_the_lowest_level_first():
    value = np.zeros((3, 3, 3), dtype=np.int64)
    assert fdmod.first_violation(value) is None
    value[0, 1, 2] = 4
    value[2, 0, 1] = 5
    value[2, 2, 1] = 6
    assert fdmod.first_violation(value) == (2, 0, 1, 5)


def test_a_quiver_without_arrows_validates_its_modules():
    alg = quiver_algebra(quiver.complete(quiver.QuiverSpec(3, ["v"], {})))
    M = fdmod.FdModule(alg, np.zeros(2, dtype=np.int64), {})
    assert validate_module(M) is None
    assert list(fdmod.relation_values(alg, {}, (3,), 2)) == []


def test_validation_reports_only_the_first_violation(algI):
    # vertex 0 then vertex 1; beta: 1 -> 0 and gamma: 0 -> 1 both act
    # against their arrows, and beta, the first generator, is reported
    labels = list(algI.grading_labels)
    M = fdmod.FdModule(algI, [labels.index(0), labels.index(1)],
                       {"beta": E(2, 1, 0), "gamma": E(2, 0, 1)}, check=False)
    err = validate_module(M)
    assert isinstance(err, RelationViolated)
    assert (err.relation_id, err.position, err.value) == (
        "grading:beta", (1, 0), None)
    # a relation's violation carries its first non-zero entry: x^2 = 0
    # at p = 3 fails at (2, 0) with the value 1 * 2
    loop = quiver_algebra(quiver.complete(quiver.QuiverSpec(
        3, ["v"], {"x": ("v", "v")}, [{("x", "x"): 1}])))
    M = fdmod.FdModule(loop, [0, 0, 0], {"x": 2 * E(3, 1, 0) + E(3, 2, 1)},
                       check=False)
    err = validate_module(M)
    assert (err.position, err.value) == ((2, 0), 2)
    assert str(err) == (
        "relation rel[0]: x*x violated at entry (2, 0) (value 2)")


# ---------------------------------------------------------------------------
# the relation derivative


def _reference_relation_rows(M, N, slots):
    """The relations' t-linear top-right blocks by stacked evaluation at
    L = 2: slot s = (a, i, j) gives generator a the extension matrix
    diag(a_N, a_M) + t E with E the unit at (i, j) of the top-right block,
    and every other generator diag(a_N, a_M)."""
    gens = M.algebra.generators
    n, dim = N.dim, N.dim + M.dim
    g, i, j = np.nonzero(slots)
    stacks = np.zeros((len(gens), g.size, dim, dim, 2), dtype=np.int64)
    for a, name in enumerate(gens):
        stacks[a, :, :n, :n, 0] = N.mats[name]
        stacks[a, :, n:, n:, 0] = M.mats[name]
    stacks[g, np.arange(g.size), i, n + j, 1] = 1
    values = fdmod.relation_values(M.algebra, dict(zip(gens, stacks)),
                                   (M.p, M.p), dim)
    return np.concatenate([np.zeros((0, g.size), dtype=np.int64)] + [
        value[:, :n, n:, 1].reshape(g.size, -1).T for _, value in values])


def _derivative_pairs(case):
    if case == "EndV-p3":
        G = groups.build_group(3)
        EndV = groups.conjugation_module(
            groups.inflate(uniserial(3), G))
        return [(EndV, EndV), (groups.simple_module(G, 0), EndV)]
    family, d = case
    T = small_module(family, completed_family(family, d))
    simples = [T.algebra.simple_module(v) for v in T.algebra.simple_labels]
    return [(T, T)] + [(T, S) for S in simples] + [(S, T) for S in simples]


@pytest.mark.parametrize("case", list(deform.FAMILY_CASES) + ["EndV-p3"])
def test_relation_derivative_matches_the_stacked_evaluation(case):
    for M, N in _derivative_pairs(case):
        slots, _ = fdmod.extension_coboundaries(M, N)
        got = fdmod.relation_derivative(N, M, slots)
        want = _reference_relation_rows(M, N, slots)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_relation_derivative_takes_a_word_past_the_recursion_limit():
    """k[a]/(a^1200): each prefix and suffix product is built from the one
    a letter shorter, so a relation word longer than the interpreter's
    recursion limit is linearised; at a = 0 its rows vanish and the loop
    spans Ext^1(S, S)."""
    spec = quiver.QuiverSpec(3, ["v"], {"a": ("v", "v")},
                             [{("a",) * 1200: 1}])
    S = quiver_algebra(quiver.complete(spec, cap=1200)).simple_module("v")
    assert ext1_by_extensions(S, S).dim == 1


@pytest.mark.parametrize("handle", ["quiver", "group"])
def test_zero_module_has_empty_coordinates(handle, algI):
    alg = (algI if handle == "quiver"
           else groups.group_algebra(groups.build_group(3)))
    Z = zero_module(alg)
    co = Z.coordinates()
    assert co.C.shape == co.C_inv.shape == (0, 0)
    assert co.labels.shape == (0,) and co.labels.dtype == np.int64
    assert Z.dimension_vector() == {}
