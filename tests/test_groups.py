"""Group tables, representations, induction, and cocycle cohomology."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from defcert import coeff, deform, fdmod, flinalg, groups

from conftest import mixed_rep_at, module_rep, uniserial, unchecked_rep


@pytest.fixture(scope="module")
def q5():
    return groups.build_group(5, quotient=True)


@pytest.fixture(scope="module")
def g3():
    return groups.build_group(3)


# ---------------------------------------------------------------------------
# tables


def test_sizes_and_defaults(g3, q5):
    assert g3.size == 18 and g3.a_eps == 2
    assert q5.size == 20 and q5.a_eps == 2
    assert groups.build_group(5).size == 100
    assert groups.build_group(7, quotient=True).size == 42


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match="order 2"):
        groups.build_group(5, 4)
    with pytest.raises(ValueError, match="odd prime"):
        groups.build_group(2)
    with pytest.raises(ValueError, match="odd prime"):
        groups.build_group(9)
    with pytest.raises(ValueError, match="unit"):
        groups.build_group(5, 0)


@pytest.mark.parametrize("quotient", [False, True])
def test_build_group_checks_every_relation_in_the_table(monkeypatch,
                                                        quotient):
    # sigma^(p-1) = 1 is false in every table of the family
    items = groups.GroupAlgebra.relation_items

    def planted(self):
        return items(self) + [("planted:sigma^(p-1)=1",
                               [(1, ("sigma",) * (self.p - 1)), (-1, ())])]

    monkeypatch.setattr(groups.GroupAlgebra, "relation_items", planted)
    with pytest.raises(ValueError, match=re.escape(
            "relation planted:sigma^(p-1)=1 fails in the table")):
        groups.build_group(5, quotient=quotient)


def test_build_group_refuses_row_swapped_tables(monkeypatch):
    """Swapping mul[g, h1] and mul[g, h2] keeps every row a permutation;
    with g, h1, h2 != 0 and neither h the inverse of g, the identity row
    and column and every inverse entry stay valid too.  Light's test must
    refuse each of 40 such tables at p = 5."""
    G5 = groups.build_group(5)
    rng = np.random.default_rng(5)
    swaps = [(g, h1, h2) for g, h1, h2 in rng.integers(1, G5.size, (80, 3))
             if h1 != h2 and G5.inv[g] not in (h1, h2)][:40]
    assert len(swaps) == 40
    original = groups.GroupTable
    for g, h1, h2 in swaps:
        def swapped(*args, g=g, h1=h1, h2=h2, **kwargs):
            table = original(*args, **kwargs)
            table.mul[g, [h1, h2]] = table.mul[g, [h2, h1]]
            return table

        monkeypatch.setattr(groups, "GroupTable", swapped)
        with pytest.raises(ValueError, match="associativity fails"):
            groups.build_group(5)


def test_build_group_needs_generators_that_reach_every_element(monkeypatch):
    # Light's test proves associativity only on what the generators reach
    monkeypatch.setattr(groups.GroupTable, "generator_indices",
                        lambda self: {"sigma": self.sigma})
    with pytest.raises(ValueError, match="do not reach every element"):
        groups.build_group(5)


def test_generator_orders(g3):
    def order(table, g):
        return next(k for k in range(1, table.size + 1)
                    if table.power(g, k) == table.identity)

    G5 = groups.build_group(5)
    assert order(G5, G5.sigma) == 5
    assert order(G5, G5.tau) == 5
    assert order(G5, G5.eps) == 4
    assert order(g3, g3.eps) == 2


def test_multiplication_matches_formula(g3):
    # ((x,y),a) * ((x',y'),a') = ((x + a x', y + y'/a), a a')
    rng = np.random.default_rng(7041)
    p = g3.p
    xs, ys, avals = g3.xs, g3.ys, g3.avals
    for _ in range(60):
        i, j = rng.integers(0, g3.size, size=2)
        k = g3.mul[i, j]
        ainv = pow(int(avals[i]), -1, p)
        assert xs[k] == (xs[i] + avals[i] * xs[j]) % p
        assert ys[k] == (ys[i] + ainv * ys[j]) % p
        assert avals[k] == avals[i] * avals[j] % p


def test_full_associativity_small(g3):
    n = g3.size
    for g in range(n):
        assert np.array_equal(g3.mul[g3.mul[g], :], g3.mul[g, g3.mul])


def test_inverse_and_power(g3):
    for g in range(g3.size):
        assert g3.mul[g, g3.inv[g]] == g3.identity
    assert g3.power(g3.sigma, 3) == g3.identity
    assert g3.power(g3.sigma, -1) == int(g3.inv[g3.sigma])


def test_eps_subgroup(q5):
    # once the run check passes, run 0 of the index order is <epsilon>
    reps = groups.eps_coset_reps(q5)
    assert reps.tolist() == list(range(0, q5.size, q5.p - 1))
    H = set(range(q5.p - 1))
    assert {q5.identity, q5.eps} <= H
    assert all(int(q5.mul[a, b]) in H for a in H for b in H)


def relabelled(table, perm):
    """The same group with element g renamed perm[g]."""
    inv = np.argsort(perm)  # new name -> old name
    return groups.GroupTable(
        table.p, table.a_eps, table.quotient, table.xs[inv], table.ys[inv],
        table.js[inv], perm[table.mul[np.ix_(inv, inv)]], perm[table.inv[inv]],
        int(perm[table.sigma]), int(perm[table.tau]), int(perm[table.eps]))


@pytest.mark.parametrize("swap,message", [
    ((1, 2), "run 0 of the table is not the subgroup <epsilon>"),
    ((3, 5), "a run of the table is not a coset of <epsilon>"),
])
def test_projectives_refuse_a_relabelled_table(g3, swap, message):
    """The projectives read the cosets of <epsilon> off runs of the index
    order.  Swapping two element names, the identity kept at 0, leaves a
    valid table of the same group whose runs are not those cosets: moving
    epsilon out of run 0, or rep_1 epsilon out of run 1."""
    perm = np.arange(g3.size)
    perm[list(swap)] = perm[list(swap[::-1])]
    table = relabelled(g3, perm)
    assert table.identity == 0
    for g in range(g3.size):
        assert np.array_equal(table.mul[perm[g], perm], perm[g3.mul[g]])
    with pytest.raises(RuntimeError, match=re.escape(message)):
        groups.induce(table, 1)


def test_quotient_projection(q5):
    G5 = groups.build_group(5)
    proj = groups.quotient_projection(G5, q5)
    assert len(set(proj.tolist())) == q5.size
    # kernel is exactly the tau line
    ker = set(np.nonzero(proj == q5.identity)[0].tolist())
    assert ker == {G5.find(0, y, 1) for y in range(5)}
    with pytest.raises(ValueError, match="that order"):
        groups.quotient_projection(q5, G5)


# ---------------------------------------------------------------------------
# representations


def test_uniserial_representation_small_entries():
    rep = uniserial(3)
    assert np.array_equal(
        rep.generator_matrix("sigma")[:, :, 0], [[1, 1], [0, 1]]
    )
    assert np.array_equal(
        rep.generator_matrix("epsilon")[:, :, 0], [[2, 0], [0, 1]]
    )


def test_uniserial_representation_needs_a_quotient_table(g3):
    with pytest.raises(ValueError, match="needs a quotient table"):
        groups.uniserial_representation(g3)


@pytest.mark.parametrize("names", [("sigma", "tau", "epsilon"),
                                   ("sigma",)])
def test_generators_must_be_exactly_the_tables(q5, names):
    # tau has no place on the quotient table: it would be dropped unread
    one = np.eye(1, dtype=np.int64)
    with pytest.raises(ValueError, match="keyed by"):
        groups.GroupRep.from_generators(q5, coeff.prime_field(5),
                                        dict.fromkeys(names, one))


def test_uniserial_representation_bands():
    rep = uniserial(5)
    s = rep.generator_matrix("sigma")[:, :, 0]
    # inverse factorials on the superdiagonals: 1, 1/2=3, 1/6=1
    assert [int(s[0, k]) for k in range(4)] == [1, 1, 3, 1]
    assert np.array_equal(
        np.diagonal(rep.generator_matrix("epsilon")[:, :, 0]), [3, 4, 2, 1]
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_last_band_is_one(p):
    rep = uniserial(p)
    s = rep.generator_matrix("sigma")[:, :, 0]
    assert s[0, p - 2] == 1  # (p-2)! is 1 mod p


@pytest.mark.parametrize("p", [3, 5])
def test_conjugation_relation_on_matrices(p):
    rep = uniserial(p)
    t = rep.table
    E, S, Einv = rep.mats[[t.eps, t.sigma, t.inv[t.eps]], :, :, 0]
    lhs = E @ S % p @ Einv % p
    assert np.array_equal(lhs, np.linalg.matrix_power(S, t.a_eps) % p)


def test_rep_is_table_verified(q5):
    # breaking one generator must trip the whole-table check
    rep = uniserial(5)
    bad_eps = rep.generator_matrix("epsilon")[:, :, 0].copy()
    bad_eps[0, 0] = 1
    with pytest.raises(ValueError, match="not a homomorphism"):
        groups.GroupRep.from_generators(
            rep.table, coeff.prime_field(5),
            {"sigma": rep.generator_matrix("sigma")[:, :, 0],
             "epsilon": bad_eps},
        )



def reference_bad_pairs(rep):
    """All (g, h) with rho(g)rho(h) != rho(gh), by a loop in Python ints."""
    t, moduli = rep.table, rep.ring.moduli
    mats = rep.mats.astype(object)
    bad = []
    for g in range(t.size):
        for h in range(t.size):
            want = mats[t.mul[g, h]]
            for l, m in enumerate(moduli):
                level = sum(mats[g][..., i].dot(mats[h][..., l - i])
                            for i in range(l + 1)) % m
                if np.any(level != want[..., l]):
                    bad.append((g, h))
                    break
    return bad


@pytest.mark.parametrize("ring", ["prime_field", "mixed_deform"])
def test_check_table_finds_every_planted_pair_in_order(ring):
    # L = 1 over the quotient at p = 5, L = 3 over the full group at p = 3
    if ring == "prime_field":
        rep = uniserial(5)
    else:
        rep = mixed_rep_at(3, 1, 3)
    assert rep.ring.levels == (1 if ring == "prime_field" else 3)
    p, L = rep.table.p, rep.ring.levels

    mats = rep.mats.copy()
    mats[5, 1, 0, L - 1] = (mats[5, 1, 0, L - 1] + 1) % p
    planted = groups.GroupRep(rep.table, rep.ring, mats, check=False)
    bad = reference_bad_pairs(planted)
    assert bad and planted.check_table() == bad
    first = re.escape(f"pair {bad[0]} and {len(bad) - 1} more")
    with pytest.raises(ValueError, match=first):
        groups.GroupRep(rep.table, rep.ring, mats)

    gens = {name: rep.generator_matrix(name).copy()
            for name in rep.table.generator_indices()}
    gens["epsilon"][0, 0, 0] = 1
    broken = unchecked_rep(rep.table, rep.ring, gens)
    bad = reference_bad_pairs(broken)
    assert bad and broken.check_table() == bad
    first = re.escape(f"pair {bad[0]} and {len(bad) - 1} more")
    with pytest.raises(ValueError, match=first):
        groups.GroupRep.from_generators(rep.table, rep.ring, gens)


def reference_element_stack(table, moduli, gens):
    """Each normal form sigma^x tau^y epsilon^j as repeated products."""
    d, L = gens["sigma"].shape[0], len(moduli)
    out = []
    for i in range(table.size):
        m = np.zeros((d, d, L), dtype=np.int64)
        m[:, :, 0] = np.eye(d, dtype=np.int64)
        for name, k in (("sigma", table.xs[i]), ("tau", table.ys[i]),
                        ("epsilon", table.js[i])):
            for _ in range(k):
                m = coeff.level_matmul(moduli, m, gens[name])
        out.append(m)
    return np.stack(out)


@pytest.mark.parametrize("case", ["quotient-p5", "full-p3"])
def test_element_stack_matches_normal_form_products(case):
    table, ring = {
        "quotient-p5": (groups.build_group(5, quotient=True),
                        coeff.prime_field(5)),
        "full-p3": (groups.build_group(3), coeff.mixed_deform(3, 1, 3)),
    }[case]
    # arbitrary generator matrices: the stack is the normal form whether
    # or not they define a representation
    rng = np.random.default_rng(12)
    names = ["sigma", "epsilon"] + ([] if table.tau is None else ["tau"])
    gens = {name: rng.integers(0, 2**20, size=(2, 2, ring.levels))
            % np.array(ring.moduli) for name in names}
    stack = groups.element_stack(table, ring.moduli, gens)
    assert stack.shape == (table.size, 2, 2, ring.levels)
    assert np.array_equal(
        stack, reference_element_stack(table, ring.moduli, gens)
    )


def coboundary_extension(rep, v):
    """[[rho(g), c(g)], [0, I]] at every g, for the coboundary
    c(g) = (rho(g) - 1) v: a homomorphism, since c(gh) = rho(g) c(h) +
    c(g), whose top-right block carries the cocycle identity."""
    moduli, k, L = rep.ring.moduli, rep.dim, rep.ring.levels
    mod = np.array(moduli)
    eye = np.zeros((k, k, L), dtype=np.int64)
    eye[:, :, 0] = np.eye(k, dtype=np.int64)
    c = coeff.level_matmul(moduli, (rep.mats - eye) % mod, v)
    m = k + v.shape[1]
    ext = np.zeros((rep.table.size, m, m, L), dtype=np.int64)
    ext[:, :k, :k], ext[:, :k, k:] = rep.mats, c
    ext[:, k:, k:, 0] = np.eye(m - k, dtype=np.int64)
    return ext


def test_table_mismatches_finds_planted_pairs_in_an_extension_stack(q5):
    rep = groups.uniserial_representation(q5)
    p, n, d = 5, q5.size, rep.dim
    rho = rep.mats[:, :, :, 0]
    V = np.random.default_rng(3).integers(0, p, size=(d, 2, 1))
    ext = coboundary_extension(rep, V)
    assert groups.table_mismatches(q5, (p,), ext, ext) == []

    ext[5, 1, d, 0] = (ext[5, 1, d, 0] + 1) % p
    ext[12, 3, d + 1, 0] = (ext[12, 3, d + 1, 0] + 4) % p
    c = ext[:, :d, d:, 0]
    want = [(g, h) for g in range(n) for h in range(n)
            if np.any((rho[g].dot(c[h]) + c[g] - c[q5.mul[g, h]]) % p)]
    assert want
    assert groups.table_mismatches(q5, (p,), ext, ext) == want


def test_rep_over_witt_ring(g3):
    # diagonal characters lift to Z/9 through the Teichmuller points
    ring = coeff.trunc_witt(3, 2)
    w = coeff.teichmuller(3, 2, 2)
    one = np.eye(1, dtype=np.int64)
    rep = groups.GroupRep.from_generators(
        g3, ring,
        {"sigma": one, "tau": one, "epsilon": one * w},
    )
    assert rep.check_table() == []
    down = rep.convert(coeff.prime_field(3))
    assert down.mats[g3.eps][0, 0, 0] == 2


def test_rep_convert_rejects_bad_target(g3):
    one = np.eye(1, dtype=np.int64)
    rep = groups.GroupRep.from_generators(
        g3, coeff.prime_field(3), {"sigma": one, "tau": one, "epsilon": one}
    )
    with pytest.raises(coeff.DescriptorMismatch):
        rep.convert(coeff.trunc_witt(3, 2))


def test_inflate_matches_projection(q5):
    G5 = groups.build_group(5)
    rep = uniserial(5)
    lifted = groups.inflate(rep, G5)
    proj = groups.quotient_projection(G5, q5)
    assert np.array_equal(lifted.mats, rep.mats[proj])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inflate_transports_the_stack_built_from_generators(p):
    """The stack transported along the projection is the one built from
    sigma, tau -> I and epsilon and checked on every pair of the table."""
    quot = groups.build_group(p, quotient=True)
    full = groups.build_group(p, quot.a_eps)
    rho_bar = groups.uniserial_representation(quot)
    built = groups.GroupRep.from_generators(full, rho_bar.ring, {
        "sigma": rho_bar.generator_matrix("sigma"),
        "tau": np.eye(rho_bar.dim, dtype=np.int64),
        "epsilon": rho_bar.generator_matrix("epsilon"),
    })
    lifted = groups.inflate(rho_bar, full)
    assert lifted.mats.dtype == built.mats.dtype
    assert np.array_equal(lifted.mats, built.mats)


# ---------------------------------------------------------------------------
# modules over the group algebra


def test_simple_modules_delta(g3):
    alg = groups.group_algebra(g3)
    dims = [
        [len(fdmod.hom_space(alg.simple_module(i), alg.simple_module(j)))
         for j in range(2)]
        for i in range(2)
    ]
    assert dims == [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="outside"):
        groups.simple_module(g3, 2)


def test_group_module_validation_catches_bad_sigma(g3):
    alg = groups.group_algebra(g3)
    mats = {"sigma": np.diag([2, 1]), "tau": np.eye(2, dtype=np.int64),
            "epsilon": np.eye(2, dtype=np.int64)}
    with pytest.raises(fdmod.RelationViolated, match="sigma"):
        fdmod.FdModule(alg, np.zeros(2, dtype=np.int64), mats)


@pytest.mark.parametrize("p", [3, 5])
def test_projectives_are_uniserial_cyclic(p):
    table = groups.build_group(p, quotient=True)
    alg = groups.group_algebra(table)
    for i in range(p - 1):
        P = alg.projective_module(i)
        st = fdmod.module_structure(P)
        assert P.dim == p
        assert st.uniserial and st.radical_layer_dims == [1] * p
        seq = [next(iter(m)) for m in st.radical_layers]
        assert seq == [(i + k) % (p - 1) for k in range(p - 1)] + [i]
        assert st.socle == {i: 1}


@pytest.mark.parametrize("p", [3, 5])
def test_cartan_is_identity_plus_ones(p):
    table = groups.build_group(p, quotient=True)
    alg = groups.group_algebra(table)
    n = p - 1
    C = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        comp = fdmod.module_structure(alg.projective_module(i)).composition_factors
        for j, m in comp.items():
            C[i, j] = m
    assert np.array_equal(C, np.eye(n, dtype=np.int64) + 1)


def test_induction_over_full_group_projective(g3):
    alg = groups.group_algebra(g3)
    P0 = alg.projective_module(0)
    assert P0.dim == 9
    assert fdmod.module_structure(P0).radical_layer_dims == [1, 2, 3, 2, 1]


@pytest.mark.parametrize("p", [3, 5])
def test_module_of_representation_is_uniserial_descending(p):
    V = groups.rep_to_module(uniserial(p))
    st = fdmod.module_structure(V)
    assert V.dim == p - 1
    assert st.uniserial
    assert [next(iter(m)) for m in st.radical_layers] == list(range(p - 1))
    assert st.top == {0: 1} and st.socle == {p - 2: 1}


def test_yoneda_identity_group_side(g3):
    alg = groups.group_algebra(g3)
    rep = groups.inflate(uniserial(3), g3)
    targets = [
        groups.rep_to_module(rep),
        alg.projective_module(1),
        fdmod.direct_sum([alg.simple_module(0), alg.simple_module(1)]),
    ]
    for M in targets:
        for i in range(2):
            lhs = len(fdmod.hom_space(alg.projective_module(i), M))
            assert lhs == np.count_nonzero(M.coordinates().labels == i)


def test_syzygy_of_uniserial_module_is_trivial_simple(q5):
    V = groups.rep_to_module(groups.uniserial_representation(q5))
    om = fdmod.syzygy(V)
    assert om.dim == 1
    assert om.dimension_vector() == {0: 1}
    alg = groups.group_algebra(q5)
    assert fdmod.is_isomorphic(om, alg.simple_module(0)).isomorphic


def test_group_handle_is_owned_by_its_table():
    table = groups.build_group(3, quotient=True)
    alg = groups.group_algebra(table)
    assert groups.group_algebra(table) is alg
    fdmod.relation_terms(alg)  # the handle keeps its Fox terms
    ref = weakref.ref(alg)
    del table, alg
    gc.collect()
    assert ref() is None


def test_yoneda_columns_does_not_keep_the_module(g3):
    alg = groups.group_algebra(g3)
    M = groups.simple_module(g3, 1)
    # the coset representatives of <epsilon> are the sigma^x tau^y, which
    # fix the vector of this character
    assert np.array_equal(alg.yoneda_columns(1, M, [1]), np.ones((1, 9)))
    ref = weakref.ref(M)
    del M
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("p,quotient", [(3, True), (5, True), (7, True),
                                        (3, False)])
def test_yoneda_columns_match_the_full_stack_read(p, quotient):
    # the reference acts on every element of the table and reads the
    # coset representatives; the columns need only sigma and tau powers
    table = groups.build_group(p, quotient=quotient)
    rho = uniserial(p)
    if not quotient:
        rho = groups.inflate(rho, table)
    alg = groups.group_algebra(table)
    reps = groups.eps_coset_reps(table)
    rng = np.random.default_rng(p)
    for N in [groups.conjugation_module(rho)] + [
            alg.projective_module(i) for i in range(p - 1)]:
        x = rng.integers(0, p, size=N.dim)
        gens = {name: N.mats[name][:, :, None] for name in alg.generators}
        acts = groups.element_stack(table, (p,), gens)[reps, :, :, 0]
        assert np.array_equal(alg.yoneda_columns(0, N, x),
                              (acts @ x % p).T)


# ---------------------------------------------------------------------------
# endomorphism modules and cohomology


@pytest.mark.parametrize("p", [3, 5])
def test_endo_module_facts(p):
    rep = uniserial(p)
    alg = groups.group_algebra(rep.table)
    V = groups.rep_to_module(rep)
    EndV = groups.conjugation_module(rep)
    assert EndV.dim == (p - 1) ** 2
    assert len(fdmod.hom_space(V, V)) == 1
    assert fdmod.ext_dim(V, V, 1).dim == 0
    assert fdmod.ext_dim(V, V, 2).dim == 0
    assert fdmod.module_structure(EndV).socle == {i: 1 for i in range(p - 1)}
    summands = [alg.simple_module(0)] + [
        alg.projective_module(i) for i in range(1, p - 1)
    ]
    assert fdmod.is_isomorphic(EndV, fdmod.direct_sum(summands)).isomorphic


def _doubled_v(p):
    full = groups.build_group(p)
    rep = groups.inflate(uniserial(p), full)
    V = groups.rep_to_module(rep)
    return full, fdmod.direct_sum([V, V])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_doubled_v_has_four_endomorphisms(p):
    """Additivity control: End_G(V) = F_p (the endomorphisms-over-G
    premise), so End_G(V + V) is the 2 x 2 matrices over F_p, of
    dimension 4."""
    _, VV = _doubled_v(p)
    assert len(fdmod.hom_space(VV, VV)) == 4


def test_doubled_v_has_four_first_cohomology_classes():
    """Additivity control: End(V + V) is four copies of End(V) as a
    G-module (the 2 x 2 blocks), and H^1(G, End(V)) = 1 at p = 3, so
    H^1(G, End(V + V)) = Ext^1(V + V, V + V) = 4."""
    full, VV = _doubled_v(3)
    assert groups.h1_cocycles(module_rep(full, VV)).dim == 4


def _rho_full(p):
    full = groups.build_group(p)
    return groups.inflate(uniserial(p), full)


def test_conjugation_module_requires_residue_ring(g3):
    one = np.eye(1, dtype=np.int64)
    rep = groups.GroupRep.from_generators(
        g3, coeff.trunc_witt(3, 2), {"sigma": one, "tau": one, "epsilon": one}
    )
    with pytest.raises(ValueError, match="residue"):
        groups.conjugation_module(rep)


@pytest.mark.parametrize("p,zdim,bdim", [(3, 4, 3), (5, 16, 15)])
def test_h1_full_group(p, zdim, bdim):
    rep = uniserial(p)
    G = groups.build_group(p)
    rho = groups.inflate(rep, G)
    r = groups.h1_cocycles(rho)
    assert (r.dim, r.cocycle_dim, r.coboundary_dim) == (1, zdim, bdim)
    # coboundary dim cross-check: dim End(V) minus the invariants (Schur: 1)
    assert r.coboundary_dim == rho.dim ** 2 - 1
    assert len(r.representatives) == 1
    Y = r.representatives[0]
    # a genuine nonzero cocycle vanishing at the identity
    assert Y.shape == (G.size, rho.dim, rho.dim)
    assert np.any(Y) and not np.any(Y[G.identity])


@pytest.mark.parametrize("p", [3, 5])
def test_h1_quotient_agrees_with_ext(p):
    rep = uniserial(p)
    V = groups.rep_to_module(rep)
    r = groups.h1_cocycles(rep)
    assert r.dim == fdmod.ext_dim(V, V, 1).dim == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h1_agrees_with_both_ext_routes_from_the_trivial_module(p):
    # H^1(G, End V) = Ext^1(k, End V) = Ext^1(V, V): the extension count of
    # h1_cocycles against the resolution route and the extension route
    # from the trivial module into the conjugation module, and against the
    # resolution route from V to V
    rho = _rho_full(p)
    M = groups.conjugation_module(rho)
    k = groups.simple_module(rho.table, 0)
    V = groups.rep_to_module(rho)
    assert groups.h1_cocycles(rho).dim == fdmod.ext_dim(k, M, 1).dim \
        == fdmod.ext1_by_extensions(k, M).dim == fdmod.ext_dim(V, V, 1).dim \
        == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h1_representatives_are_conjugation_cocycles(p):
    # c(g) = Y(g) rho(g)^-1 is a cocycle of the conjugation action on
    # End(V), checked on every pair against the Kronecker squares of rho
    rho = _rho_full(p)
    t, d = rho.table, rho.dim
    r = rho.mats[:, :, :, 0]
    Y = groups.h1_cocycles(rho).representatives[0]
    c = np.einsum("gij,gjk->gik", Y, r[t.inv]).reshape(t.size, d * d) % p
    K = np.einsum("gik,glj->gijkl", r, r[t.inv]).reshape(t.size, d * d,
                                                        d * d)
    assert np.array_equal(
        c[t.mul], (np.einsum("gab,hb->gha", K, c) + c[:, None]) % p)


def _with_expansion(monkeypatch, d, edit, left=False):
    """Patch `element_stack` so that edit changes the top-right (d, d)
    block of each stack, the cocycle values that h1_cocycles expands, or
    with `left` the top-left block, rho."""
    expand = groups.element_stack
    block = (slice(None), slice(None, d), slice(None, d) if left
             else slice(d, None))

    def edited(*args):
        stack = expand(*args).copy()
        stack[block] = edit(stack[block])
        return stack

    monkeypatch.setattr(groups, "element_stack", edited)


def test_h1_table_check_catches_a_corrupted_cocycle(monkeypatch):
    # the extension stack's top-right block feeds the |G|^2 check of the
    # basis; one bad value at an element that is no generator, tau^2
    # epsilon, must fail it
    rho = _rho_full(3)

    def corrupted(block):
        block[5] = (block[5] + 1) % 3
        return block

    _with_expansion(monkeypatch, rho.dim, corrupted)
    with pytest.raises(RuntimeError, match="cocycle basis failed the table"):
        groups.h1_cocycles(rho)


def test_h1_table_check_reads_the_left_column_through_act(monkeypatch):
    # the |G|^2 check multiplies only the right column [[Y], [rho]]; the
    # top-left rho still enters as act(g), so one bad value there at the
    # non-generator tau^2 epsilon must fail it
    rho = _rho_full(3)

    def corrupted(block):
        block[5] = (block[5] + 1) % 3
        return block

    _with_expansion(monkeypatch, rho.dim, corrupted, left=True)
    with pytest.raises(RuntimeError, match="cocycle basis failed the table"):
        groups.h1_cocycles(rho)


def test_h1_read_back_catches_a_rescaled_expansion(monkeypatch):
    # twice a cocycle is a cocycle, so the doubled expansion passes the
    # |G|^2 check; only reading it back at the generators sees that it is
    # not the expansion of the solved generator values
    rho = _rho_full(3)
    _with_expansion(monkeypatch, rho.dim, lambda block: 2 * block % 3)
    with pytest.raises(RuntimeError, match="cocycle basis failed the table"):
        groups.h1_cocycles(rho)


def test_h1_memory_stays_near_the_stack_it_is_given():
    # the cocycle values come from one extension stack of dimension 2d,
    # 4 d^2 entries per element against d^4 for End(V): the peak stays
    # below a single End(V) stack of the same table (9 extension stacks
    # at p = 7; the peak, set by one block of the table check, is
    # about 7)
    rho = _rho_full(7)
    end_v = rho.mats.nbytes * rho.dim ** 2
    tracemalloc.start()
    try:
        groups.h1_cocycles(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < end_v


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h1_coboundary_check_catches_a_lost_coboundary(p, monkeypatch):
    # the invariants of End(V) are the scalars, so the coboundary of the
    # off-diagonal unit E_01 (column 1) lies outside the span of the rest;
    # zeroed, it still solves the rows, and the genuine cocycle it leaves
    # out joins the class representatives.  Without the comparison of each
    # column with rho(s) F - F rho(s) this reads as h1 = 2, and every
    # other check passes
    rho = _rho_full(p)
    coboundaries = fdmod.extension_coboundaries

    def lost(*args):
        slots, cob = coboundaries(*args)
        cob = cob.copy()
        cob[:, 1] = 0
        return slots, cob

    monkeypatch.setattr(fdmod, "extension_coboundaries", lost)
    with pytest.raises(RuntimeError, match="cocycle basis failed the table"):
        groups.h1_cocycles(rho)


def _with_relation_rows(monkeypatch, edit):
    """Patch the relation rows h1_cocycles solves, and record the dimension
    zdim of the solutions it counts."""
    derivative, extend = fdmod.relation_derivative, flinalg.extend_basis
    zdims = []

    def counted(base, cands, p):
        zdims.append(cands.shape[1])
        return extend(base, cands, p)

    monkeypatch.setattr(fdmod, "relation_derivative",
                        lambda *args: edit(derivative(*args)))
    monkeypatch.setattr(flinalg, "extend_basis", counted)
    return zdims


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h1_pick_check_catches_a_defect_in_the_relation_rows(p, monkeypatch):
    # half the relation rows admit a null vector that is no cocycle; it
    # joins the class representatives, which are checked on every pair
    rho = _rho_full(p)
    zdim = groups.h1_cocycles(rho).cocycle_dim
    zdims = _with_relation_rows(monkeypatch, lambda rows: rows[:len(rows) // 2])
    with pytest.raises(RuntimeError, match="cocycle basis failed the table"):
        groups.h1_cocycles(rho)
    assert len(zdims) == 1 and zdims[0] > zdim


def test_h1_count_catches_a_coboundary_cut_from_the_solutions(monkeypatch):
    # a bogus relation row that a coboundary breaks: the solutions no longer
    # hold every verified coboundary, so bdim + len(picks) exceeds zdim
    rho = _rho_full(3)
    zdim = groups.h1_cocycles(rho).cocycle_dim
    zdims = _with_relation_rows(monkeypatch, lambda rows: np.vstack(
        [rows, np.ones((1, rows.shape[1]), dtype=np.int64)]))
    with pytest.raises(RuntimeError, match="coboundaries escaped"):
        groups.h1_cocycles(rho)
    assert zdims == [zdim - 1]


def test_hom_from_last_simple_reported_separately():
    # companion number to the h1 dimension, reported but not asserted
    # equal to it by any theory here
    for p in (3, 5):
        rep = uniserial(p)
        alg = groups.group_algebra(rep.table)
        EndV = groups.conjugation_module(rep)
        hd = len(fdmod.hom_space(alg.simple_module(p - 2), EndV))
        assert hd == 1


def test_primitive_root_invariance_p5():
    # 2 and 3 are the primitive roots; every reported dimension must agree
    reports = []
    for a in (2, 3):
        rep = uniserial(5, a)
        alg = groups.group_algebra(rep.table)
        V = groups.rep_to_module(rep)
        G = groups.build_group(5, a)
        h1 = groups.h1_cocycles(groups.inflate(rep, G))
        reports.append(
            {
                "h1": h1.dim,
                "z": h1.cocycle_dim,
                "end": len(fdmod.hom_space(V, V)),
                "ext1": fdmod.ext_dim(V, V, 1).dim,
                "ext2": fdmod.ext_dim(V, V, 2).dim,
                "proj_layers": fdmod.module_structure(
                    alg.projective_module(2)
                ).radical_layer_dims,
                "socle": fdmod.module_structure(
                    groups.conjugation_module(rep)
                ).socle,
            }
        )
    assert reports[0] == reports[1]


def test_h1_invariant_under_base_change():
    # conjugating the representation must not move the cohomology
    p = 3
    rng = np.random.default_rng(90121)
    rep = uniserial(p)
    G = groups.build_group(p)
    base = groups.inflate(rep, G)
    for _ in range(3):
        while True:
            g = rng.integers(0, p, size=(2, 2))
            import defcert.flinalg as flinalg
            if flinalg.inv(g, p) is not None:
                break
        ginv = flinalg.inv(g, p)
        mats = {
            name: g @ base.generator_matrix(name)[:, :, 0] @ ginv % p
            for name in ("sigma", "tau", "epsilon")
        }
        moved = groups.GroupRep.from_generators(
            G, coeff.prime_field(p), mats
        )
        r = groups.h1_cocycles(moved)
        assert r.dim == 1


def reference_pairs(table, moduli, act, val):
    """All (g, h) with act(g) val(h) != val(gh), in Python ints."""
    act, val = act.astype(object), val.astype(object)
    bad = []
    for g in range(table.size):
        for h in range(table.size):
            for l, m in enumerate(moduli):
                level = sum(act[g][..., i].dot(val[h][..., l - i])
                            for i in range(l + 1))
                if np.any((level - val[table.mul[g, h]][..., l]) % m):
                    bad.append((g, h))
                    break
    return bad


def route_representation(route):
    """A representation whose table check multiplies on `route`: the
    prime field at p = 5 takes float32; Z/3^n at n = 8 takes float64 and
    at n = 17 int64, where 2 (3^n - 1)^2 passes 2^53."""
    if route == np.float32:
        rep = uniserial(5)
    else:
        rep = mixed_rep_at(3, 8 if route == np.float64 else 17, 3)
    moduli = rep.ring.moduli
    assert flinalg.exact_product(rep.dim, moduli, 2 * max(moduli)) == route
    return rep


@pytest.mark.parametrize("route", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("extension", [False, True])
def test_table_mismatches_finds_planted_pairs_on_every_route(route,
                                                             extension):
    rep = route_representation(route)
    table, moduli = rep.table, rep.ring.moduli
    k, L = rep.dim, rep.ring.levels
    mod = np.array(moduli)
    if extension:
        v = np.random.default_rng(5).integers(0, 2**40, size=(k, 2, L)) % mod
        val = coboundary_extension(rep, v)
        assert flinalg.exact_product(k + 2, moduli, 2 * max(moduli)) == route
    else:
        val = rep.mats
    assert groups.table_mismatches(table, moduli, val, val) == []

    # an extension is planted in its top-right block, the coboundary
    col = k if extension else 0
    val = val.copy()
    val[5, 1, col, L - 1] = (val[5, 1, col, L - 1] + 1) % mod[L - 1]
    val[11, 0, col + 1, 0] = (val[11, 0, col + 1, 0] + mod[0] - 1) % mod[0]
    want = reference_pairs(table, moduli, val, val)
    assert want
    assert groups.table_mismatches(table, moduli, val, val) == want


def planted_stacks(rep, rows):
    """Table values of rep corrupted at `rows`: its own matrices, or its
    coboundary extension corrupted in the top-right block."""
    moduli, k, L = rep.ring.moduli, rep.dim, rep.ring.levels
    mod = np.array(moduli)
    v = np.random.default_rng(9).integers(0, 2**40, size=(k, 2, L)) % mod
    vals = []
    for val, col in ((rep.mats.copy(), 1), (coboundary_extension(rep, v), k)):
        for i, h in enumerate(rows):
            l = i % L
            val[h, 0, col, l] = (val[h, 0, col, l] + 1) % mod[l]
        vals.append(val)
    return vals


def check_planted_pairs_under_every_block_size(monkeypatch, rep):
    # blocks of one, two and three h and one block of the whole table:
    # rows 6 and 7 open and close a block of two, 6 opens and 5 closes a
    # block of three
    rows = (6, 7, 5)
    table, moduli = rep.table, rep.ring.moduli
    for act, val in zip((rep.mats, None), planted_stacks(rep, rows)):
        act = val if act is None else act
        want = reference_pairs(table, moduli, act, val)
        assert set(rows) <= {h for _, h in want}
        per_h = table.size * act.shape[1] * val.shape[2] * val.shape[3]
        for block in (1, 2, 3, table.size):
            monkeypatch.setattr(groups, "TABLE_BLOCK_ENTRIES", block * per_h)
            assert groups.table_mismatches(table, moduli, act, val) == want


@pytest.mark.parametrize("route", [np.float32, np.float64, np.int64])
def test_table_mismatches_does_not_depend_on_the_worker_count(
        monkeypatch, route):
    check_planted_pairs_under_every_block_size(
        monkeypatch, route_representation(route))


@pytest.mark.parametrize("n, route, word, narrower", [
    (5, np.float32, np.uint32, np.uint16),   # 2 * 242^2 + 486 > 2^16
    (12, np.float64, np.uint64, np.uint32),  # 2 * (3^12 - 1)^2 > 2^32
])
def test_table_mismatches_on_float32_in_uint32_and_float64_in_uint64(
        monkeypatch, n, route, word, narrower):
    # the route and word pairs the tests above do not reach: there
    # uniserial(5) takes float32 in uint16 and Z/3^8 float64 in uint32
    rep = mixed_rep_at(3, n, 3)
    k, moduli, L = rep.dim, rep.ring.moduli, rep.ring.levels
    assert flinalg.exact_product(k, moduli, 2 * max(moduli)) == route
    assert flinalg.exact_word(k, moduli, 2 * max(moduli)) == word
    # conjugating by a unit with large entries keeps a representation
    # whose products pass the narrower word
    c = np.array([[moduli[0] - 2, moduli[0] // 2], [moduli[0] // 3, 1]])
    det = int(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
    c_inv = np.array([[c[1, 1], -c[0, 1]], [-c[1, 0], c[0, 0]]]) * pow(
        det, -1, moduli[0])
    conj = []
    for x in (c, c_inv):
        stack = np.zeros((k, k, L), dtype=np.int64)
        stack[..., 0] = x % moduli[0]
        conj.append(stack)
    mats = coeff.level_matmul(
        moduli, coeff.level_matmul(moduli, conj[0], rep.mats), conj[1])
    rep = groups.GroupRep(rep.table, rep.ring, mats)
    products = coeff.convolve_levels(mats[:, None], mats[None], np.int64)
    assert products.max() > np.iinfo(narrower).max
    check_planted_pairs_under_every_block_size(monkeypatch, rep)


def test_table_mismatches_refuses_an_even_modulus_before_any_product(
        monkeypatch, q5):
    rep = groups.uniserial_representation(q5)

    def no_product(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(coeff, "convolve_levels", no_product)
    with pytest.raises(ValueError, match="odd moduli"):
        groups.table_mismatches(q5, (4,), rep.mats % 4, rep.mats % 4)
