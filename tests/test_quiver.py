"""Presentations, completion, and the irreducible-word basis.

The headline check is an independent dimension oracle: a bounded-length
linear-algebra quotient computed with bitset Gaussian elimination, shared
with nothing in the package.
"""

import hashlib
import json
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcert import deform, quiver
from defcert.quiver import (
    CapExceededError,
    InfiniteDimensionError,
    QuiverSpec,
    builtin_family,
    complete,
    family3_printed_spec,
    loop_witness,
)
from conftest import completed_family


# ---------------------------------------------------------------------------
# presentations


ONE_LOOP = QuiverSpec(2, ["v"], {"x": ("v", "v")}, [{("x", "x"): 1}])


def test_one_loop_basis():
    sys = complete(ONE_LOOP, cap=8)
    assert sys.dim == 2
    assert sys.basis_by_source == {"v": [(), (0,)]}  # e_v and x


def test_non_composable_relation_rejected():
    with pytest.raises(ValueError, match="not composable"):
        QuiverSpec(2, ["a", "b"], {"x": ("a", "b")}, [{("x", "x"): 1}])


LOOP_AND_EXIT = {"x": ("a", "a"), "y": ("a", "b")}


@pytest.mark.parametrize("vertices, arrows, relation, message", [
    (["a", "a"], {}, None, "duplicate vertex"),
    (["a"], {"x": ("a", "b")}, None, "unknown vertex"),
    (["a"], {"x": ("a", "a")}, {("x",): 1}, "length >= 2"),
    (["a"], {"x": ("a", "a")}, {("x", "z"): 1}, "unknown arrow"),
    (["a"], {"x": ("a", "a")}, {("x", "x"): 2}, "identically zero"),
    (["a", "b"], LOOP_AND_EXIT, {("x", "x"): 1, ("y", "x"): 1},
     "not parallel"),
    (["a", "b"], LOOP_AND_EXIT, {("x", "y"): 1}, "not composable"),
], ids=["duplicate-vertex", "unknown-vertex", "short-monomial",
        "unknown-arrow", "zero-relation", "non-parallel", "non-composable"])
def test_quiver_spec_validation(vertices, arrows, relation, message):
    relations = [] if relation is None else [relation]
    with pytest.raises(ValueError, match=message):
        QuiverSpec(2, vertices, arrows, relations)


def test_builtin_family_argument_errors():
    with pytest.raises(ValueError):
        builtin_family("I", 1)
    with pytest.raises(ValueError):
        builtin_family("III", 2)
    with pytest.raises(ValueError):
        builtin_family("IV", 2)


# ---------------------------------------------------------------------------
# completion: frozen dimensions


FROZEN_DIMS = {
    ("I", 2): (36, {1: 10, 0: 16, 2: 10}),
    ("I", 3): (68, {1: 18, 0: 32, 2: 18}),
    ("II", 2): (24, {0: 8, 1: 8, 2: 8}),
    ("II", 3): (32, {0: 8, 1: 12, 2: 12}),
    ("III", 3): (38, {1: 12, 0: 16, 2: 10}),
}


@pytest.mark.parametrize("family,d", sorted(FROZEN_DIMS))
def test_completion_dimensions(family, d):
    sys = completed_family(family, d)
    total, by_source = FROZEN_DIMS[(family, d)]
    assert sys.dim == total
    assert sys.dims_by_source() == by_source
    assert sys.dim == sum(sys.dims_by_source().values())
    for words in sys.basis_by_source.values():
        assert words == sorted(words, key=lambda w: (len(w), w))


def test_rule_lists_are_unchanged():
    # each built-in's rules in store order, tails sorted, beyond the counts
    # and dimensions pinned above
    rules = json.dumps([
        [[list(lead), sorted([list(w), c] for w, c in tail.items())]
         for lead, tail in complete(builtin_family(f, d)).rules]
        for f, d in deform.FAMILY_CASES
    ], separators=(",", ":"))
    assert [len(r) for r in json.loads(rules)] == [11, 11, 22, 22, 16]
    assert len(rules) == 1660
    assert hashlib.sha256(rules.encode()).hexdigest() == (
        "2073ac86912f7c34e0ece9fa1bd9c242cf8c10d940f6a4d7b159c74470a026e2")


def test_relation_generators_reduce_to_zero():
    for family, d in sorted(FROZEN_DIMS):
        sys = completed_family(family, d)
        for rel in sys.spec.relations:
            nf = sys.reduce_terms(
                {tuple(sys.spec.arrow_index[a] for a in w): c
                 for w, c in rel.items()}
            )
            assert nf == {}


def test_completion_cap_trips():
    with pytest.raises(CapExceededError):
        complete(builtin_family("I", 2), cap=4)


def test_printed_third_family_diverges():
    # the four strand relations alone leave every loop power irreducible
    with pytest.raises(CapExceededError):
        complete(family3_printed_spec(), cap=24)


# ---------------------------------------------------------------------------
# the loop witness of infinite dimension


def test_loop_witness_names_only_the_printed_loop():
    for family, d in sorted(FROZEN_DIMS):
        assert loop_witness(builtin_family(family, d)) is None
    assert loop_witness(family3_printed_spec()) == "alpha"


def test_printed_third_family_raises_before_any_reduction(monkeypatch):
    def no_rewriting(*args):
        raise AssertionError("the witness must fire before any reduction")

    monkeypatch.setattr(quiver, "_reduce", no_rewriting)
    with pytest.raises(InfiniteDimensionError, match="alpha") as info:
        complete(family3_printed_spec(), cap=24)
    assert info.value.loop == "alpha"


def test_free_loop_is_infinite_and_its_cube_is_not():
    free = QuiverSpec(2, [0], {"a": (0, 0)})
    with pytest.raises(InfiniteDimensionError, match="loop a") as info:
        complete(free, cap=8)
    assert info.value.loop == "a"
    cubed = QuiverSpec(2, [0], {"a": (0, 0)}, [{("a", "a", "a"): 1}])
    assert loop_witness(cubed) is None
    assert complete(cubed, cap=8).dims_by_source() == {0: 3}


def test_free_two_cycle_still_reaches_the_length_cap():
    """The witness is one-sided: a loopless cycle falls through to a guard.

    a: 0 -> 1 and b: 1 -> 0 with no relations span an infinite-dimensional
    path algebra, but neither arrow is a loop, so the witness stays silent
    and the basis search trips the length cap with a plain
    CapExceededError.
    """
    spec = QuiverSpec(2, [0, 1], {"a": (0, 1), "b": (1, 0)})
    assert loop_witness(spec) is None
    message = "irreducible word of length 12 at vertex 0"
    with pytest.raises(CapExceededError, match=message) as info:
        complete(spec, cap=12)
    assert not isinstance(info.value, InfiniteDimensionError)


def test_a_long_input_relation_is_blamed_on_the_presentation():
    """a^1200 is the presentation's own word, longer than twice the default
    cap 64, so the rule-length guard names the presentation; a cap that
    admits it completes it to one rule.  A long rule that the completion
    makes keeps the completion's message."""
    spec = QuiverSpec(2, [0], {"a": (0, 0)}, [{("a",) * 1200: 1}])
    message = "a relation word in the presentation has length 1200 > 128"
    with pytest.raises(CapExceededError, match=message):
        complete(spec)
    system = complete(spec, cap=1200)
    assert len(system.rules) == 1
    assert system.dims_by_source() == {0: 1200}
    made = QuiverSpec(2, [0], {"a": (0, 0), "b": (0, 0)}, [
        {("a", "b", "b"): 1, ("b", "b", "a"): 1},
        {("a",) * 3: 1}, {("b",) * 3: 1}])
    with pytest.raises(CapExceededError,
                       match="completion produced a rule of length 5 > 4"):
        complete(made, cap=2)


def evaluate_relation(spec, rel, mats):
    """The relation's value on a representation, by numpy products only."""
    acc = 0
    for word, c in rel.items():
        prod = mats[word[0]]
        for a in word[1:]:
            prod = prod @ mats[a]
        acc = acc + c * prod
    return acc % spec.p


def test_printed_relations_vanish_on_every_jordan_block():
    """An oracle that never rewrites: k[alpha]/alpha^n is a module for all n.

    Put k^n at alpha's vertex and 0 at the others, let alpha act as the
    nilpotent Jordan block J_n and every other arrow as the zero map.  Every
    printed relation evaluates to the zero matrix, so this is a module over
    the printed algebra, and the algebra's image in End(k^n) contains the n
    independent powers I, J, ..., J^(n-1).  With n = 40, past any cap used
    here, the printed algebra has dimension at least 40.  The same
    evaluation does not vanish on the closure relation gamma*beta = alpha^3
    of the built-in family III, whose alpha^3 side is J^3 != 0.
    """
    n = 40
    printed = family3_printed_spec()
    v = printed.source("alpha")
    size = {u: n if u == v else 0 for u in printed.vertices}
    mats = {
        a: np.zeros((size[t], size[s]), dtype=np.int64)
        for a, (s, t) in printed.arrows.items()
    }
    mats["alpha"] = np.eye(n, k=1, dtype=np.int64)
    for rel in printed.relations:
        assert not evaluate_relation(printed, rel, mats).any()
    # J^k is the k-th superdiagonal, so the n powers have disjoint supports
    for k in range(n):
        power = np.linalg.matrix_power(mats["alpha"], k)
        assert np.array_equal(power, np.eye(n, k=k, dtype=np.int64))
    closed = builtin_family("III", 3)
    assert any(evaluate_relation(closed, rel, mats).any()
               for rel in closed.relations)


# ---------------------------------------------------------------------------
# normal forms


def named_normal_form(sys, word):
    """`reduce_terms` of one word of arrow names, keyed by arrow names."""
    spec = sys.spec
    nf = sys.reduce_terms({tuple(spec.arrow_index[a] for a in word): 1})
    return {tuple(spec.arrow_names[i] for i in w): c for w, c in nf.items()}


def test_normal_form_directions():
    sys = completed_family("I", 2)
    b, g, d, h = "beta", "gamma", "delta", "eta"
    # the long side of the first defining relation rewrites to the short one
    assert named_normal_form(sys, (h, d, b, g, h, d, b)) == {(b, g, b): 1}
    # the short side is already irreducible
    assert named_normal_form(sys, (b, g, b)) == {(b, g, b): 1}
    # and one extra step lands in the ideal
    assert named_normal_form(sys, (d, b, g, b)) == {}


def random_word(rng, spec, max_len):
    """A random composable word, grown by prepending arrows."""
    names = list(spec.arrows)
    start = names[rng.randrange(len(names))]
    word = [start]
    for _ in range(rng.randrange(max_len)):
        tgt = spec.target(word[0])
        options = [a for a in names if spec.source(a) == tgt]
        if not options:
            break
        word.insert(0, options[rng.randrange(len(options))])
    return tuple(word)


def naive_random_order_reduce(sys, terms, rng):
    """Fixpoint reduction applying an arbitrary applicable rule each step."""
    p = sys.spec.p
    terms = {w: c % p for w, c in terms.items() if c % p}
    while True:
        options = []
        for w in terms:
            for i in range(len(w)):
                for lead, tail in sys.rules:
                    if w[i : i + len(lead)] == lead:
                        options.append((w, i, lead, tail))
        if not options:
            return terms
        w, i, lead, tail = options[rng.randrange(len(options))]
        c = terms.pop(w)
        for tw, tc in tail.items():
            nw = w[:i] + tw + w[i + len(lead) :]
            v = (terms.get(nw, 0) + c * tc) % p
            if v:
                terms[nw] = v
            else:
                terms.pop(nw, None)


def test_reduction_is_confluent():
    # 500 random words, reduced deterministically and in random rule order
    rng = random.Random(424242)
    for family, d in [("I", 2), ("II", 2)]:
        sys = completed_family(family, d)
        spec = sys.spec
        for _ in range(250):
            word = random_word(rng, spec, 12)
            iword = tuple(spec.arrow_index[a] for a in word)
            fast = sys.reduce_terms({iword: 1})
            slow = naive_random_order_reduce(sys, {iword: 1}, rng)
            assert fast == slow


# ---------------------------------------------------------------------------
# the completion against a tuple-word reference
#
# The reference is the plain loop: words are int tuples, every occurrence
# test slices, and after each new rule every tail is re-reduced.  The
# package's completion must agree with it rule for rule, in store order
# and tail order, basis for basis and error for error.


def reference_find(word, by_first):
    for pos in range(len(word)):
        for lead in by_first.get(word[pos], ()):
            if word[pos : pos + len(lead)] == lead:
                return pos, lead
    return None


def reference_reduce(terms, store, by_first, p):
    terms = {w: c % p for w, c in terms.items() if c % p}
    out = {}
    while terms:
        word = max(terms, key=lambda w: (len(w), w))
        c = terms.pop(word)
        hit = reference_find(word, by_first)
        if hit is None:
            out[word] = c
            continue
        pos, lead = hit
        for tw, tc in store[lead].items():
            nw = word[:pos] + tw + word[pos + len(lead) :]
            nc = (terms.get(nw, 0) + c * tc) % p
            if nc:
                terms[nw] = nc
            else:
                terms.pop(nw, None)
    return out


def reference_index(store):
    by_first = {}
    for lead in store:
        by_first.setdefault(lead[0], []).append(lead)
    return by_first


def reference_complete(spec, cap):
    """(rules in store order, basis by source) with int-tuple words."""
    loop = loop_witness(spec)
    if loop is not None:
        raise InfiniteDimensionError(loop)
    p, store, by_first = spec.p, {}, {}
    pending = deque({tuple(spec.arrow_index[a] for a in w): c
                     for w, c in rel.items()} for rel in spec.relations)
    spairs_done = 0
    while pending:
        poly = reference_reduce(pending.popleft(), store, by_first, p)
        if not poly:
            continue
        lead = max(poly, key=lambda w: (len(w), w))
        if len(lead) > 2 * cap:
            raise CapExceededError(
                f"completion produced a rule of length {len(lead)} > {2 * cap}"
            )
        inv = pow(poly[lead], -1, p)
        tail = {w: (-c * inv) % p for w, c in poly.items() if w != lead}
        for old in [w for w in store
                    if reference_find(w, {lead[0]: [lead]})]:
            pending.append({old: 1} | {w: -c % p for w, c in
                                       store.pop(old).items()})
        store[lead] = tail
        if len(store) > 600:
            raise CapExceededError("completion exceeded 600 rules")
        by_first = reference_index(store)
        store.update({ld: reference_reduce(tl, store, by_first, p)
                      for ld, tl in store.items()})
        for other in store:
            for u, v in ((lead, other), (other, lead)):
                for ell in range(1, min(len(u), len(v))):
                    if u[-ell:] != v[:ell]:
                        continue
                    s = {w + v[ell:]: c for w, c in store[u].items()}
                    for w, c in store[v].items():
                        s[u[:-ell] + w] = (s.get(u[:-ell] + w, 0) - c) % p
                    pending.append(s)
                    spairs_done += 1
                    if spairs_done > 200000:
                        raise CapExceededError(
                            "completion S-pair budget exhausted")
    ends = list(spec.arrows.values())
    basis = {}
    for v in spec.vertices:
        words, frontier = [()], [()]
        while frontier:
            nxt = []
            for w in frontier:
                at = ends[w[0]][1] if w else v
                for idx, (src, _) in enumerate(ends):
                    cand = (idx,) + w
                    if src != at or any(cand[: len(lead)] == lead
                                        for lead in by_first.get(idx, ())):
                        continue
                    if len(cand) >= cap:
                        raise CapExceededError(
                            f"irreducible word of length {cap} at vertex {v}"
                        )
                    nxt.append(cand)
            frontier = sorted(nxt)
            words.extend(frontier)
        basis[v] = words
    return [(lead, list(tail.items())) for lead, tail in store.items()], basis


@st.composite
def small_presentations(draw):
    """A quiver of 1 or 2 vertices and 1 to 4 arrows over F_2 or F_3 with
    up to 6 relations of 1 to 4 parallel words of length 2 to 4, and most
    of the time a pure power of each loop, so the loop witness does not
    end most draws."""
    p = draw(st.sampled_from([2, 3]))
    vertices = list(range(draw(st.integers(1, 2))))
    vertex = st.sampled_from(vertices)
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4))
    arrows = {f"a{i}": end for i, end in enumerate(ends)}

    def word(start):
        # grown by prepending an arrow leaving the current target
        out, at = [], start
        for _ in range(draw(st.integers(2, 4))):
            options = [a for a, (s, _) in arrows.items() if s == at]
            if not options:
                return None
            out.insert(0, draw(st.sampled_from(options)))
            at = arrows[out[0]][1]
        return tuple(out), at

    relations = [{(a,) * draw(st.integers(2, 4)): 1}
                 for a, (s, t) in arrows.items()
                 if s == t and draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, 6))):
        start = draw(vertex)
        terms, end = {}, None
        for _ in range(draw(st.integers(1, 4))):
            grown = word(start)
            if grown is None or end not in (None, grown[1]):
                continue
            end = grown[1]
            terms[grown[0]] = draw(st.integers(1, p - 1))
        if terms:
            relations.append(terms)
    return QuiverSpec(p, vertices, arrows, relations)


def outcome(run):
    try:
        return run()
    except CapExceededError as err:
        return type(err), str(err)


# caps 3 and 4 keep each draw under a second: at cap 6 about one draw in
# a few thousand rewrites for a minute before a guard trips
@settings(max_examples=300, deadline=None)
@given(small_presentations(), st.integers(3, 4))
def test_completion_matches_the_tuple_reference(spec, cap):
    def package():
        system = complete(spec, cap)
        return ([(lead, list(tail.items())) for lead, tail in system.rules],
                system.basis_by_source)

    assert outcome(package) == outcome(lambda: reference_complete(spec, cap))


def test_public_words_are_int_tuples():
    system = complete(builtin_family("II", 2))
    words = [lead for lead, _ in system.rules]
    words += [w for _, tail in system.rules for w in tail]
    words += [w for ws in system.basis_by_source.values() for w in ws]
    spec = system.spec
    for rel in spec.relations:
        nf = system.reduce_terms({tuple(spec.arrow_index[a] for a in w): c
                                  for w, c in rel.items()})
        assert nf == {}
    product = (spec.arrow_index["beta"], spec.arrow_index["gamma"])
    nf = system.reduce_terms({product * 2: 1})
    words += list(nf)
    assert nf and words
    assert all(type(w) is tuple and all(type(a) is int for a in w)
               for w in words)


def test_more_arrows_than_a_byte_holds_are_refused():
    QuiverSpec(2, [0], {f"a{i}": (0, 0) for i in range(256)})
    with pytest.raises(ValueError, match="over 256 arrows"):
        QuiverSpec(2, [0], {f"a{i}": (0, 0) for i in range(257)})


# ---------------------------------------------------------------------------
# the independent dimension certificate
#
# Three pieces, none of which trusts the completion engine:
#   (A) every derived rewrite rule is certified to lie in the two-sided
#       ideal, by expressing it in the span of padded copies u*r*v of the
#       original relations (bitset elimination over bounded-length paths);
#   (B) the irreducible words are recounted combinatorially: a word is
#       irreducible exactly when no certified lead is a substring, and no
#       irreducible word survives past the claimed maximal length;
#   (C) the claimed basis carries an explicit module structure on which the
#       original relations vanish, checked by plain matrix arithmetic,
#       which pins the dimension from below.
# Together: dim = 36 exactly for the first family at d = 2.


def enumerate_paths(spec, max_len):
    """All composable words up to max_len, plus one empty word per vertex."""
    paths = [((), v) for v in spec.vertices]  # (word, source)
    frontier = list(paths)
    for _ in range(max_len):
        nxt = []
        for word, src in frontier:
            tgt = spec.target(word[0]) if word else src
            for a in spec.arrows:
                if spec.source(a) == tgt:
                    nxt.append(((a,) + word, src))
        paths.extend(nxt)
        frontier = nxt
    return paths


def path_target(spec, word, src):
    return spec.target(word[0]) if word else src


def certify_rule_memberships(spec, sys, budget):
    """(A): each rule's polynomial is in the span of padded relations.

    Rows and targets are grouped by (source, target) endpoints; different
    endpoint pairs never interact, which keeps the bitsets small.
    """
    assert spec.p == 2
    paths = enumerate_paths(spec, budget)
    by_pair = {}
    for word, src in paths:
        by_pair.setdefault((src, path_target(spec, word, src)), []).append(
            (word, src)
        )

    def eliminate(rows):
        pivots = {}
        for row in rows:
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
        return pivots

    def reduces_to_zero(vec, pivots):
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                return False
            vec ^= pivots[top]
        return True

    pivot_cache = {}
    for lead, tail in sys.rules:
        lead_names = tuple(spec.arrow_names[i] for i in lead)
        s, t = spec.word_endpoints(lead_names)
        pair = (s, t)
        space = by_pair[pair]
        index = {pw: i for i, pw in enumerate(space)}
        if pair not in pivot_cache:
            rows = []
            for rel in spec.relations:
                w0 = next(iter(rel))
                s_r, t_r = spec.word_endpoints(w0)
                longest = max(len(w) for w in rel)
                for u, us in paths:
                    if us != t_r or path_target(spec, u, us) != t:
                        continue
                    for v, vs in paths:
                        if vs != s or path_target(spec, v, vs) != s_r:
                            continue
                        if len(u) + longest + len(v) > budget:
                            continue
                        bits = 0
                        for w, c in rel.items():
                            assert c % 2 == 1
                            bits ^= 1 << index[(u + w + v, vs)]
                        rows.append(bits)
            pivot_cache[pair] = eliminate(rows)
        vec = 1 << index[(lead_names, s)]
        for w, c in tail.items():
            assert c % 2 == 1
            vec ^= 1 << index[(tuple(spec.arrow_names[i] for i in w), s)]
        assert reduces_to_zero(vec, pivot_cache[pair]), (
            f"rule {lead_names} not certified inside the ideal"
        )


def test_dimension_certificate_first_family():
    spec = builtin_family("I", 2)
    sys = completed_family("I", 2)
    assert sys.dim == 36

    # (A) all rules certified in the ideal; witnesses stay short because
    # every overlap word has at most 13 letters here
    certify_rule_memberships(spec, sys, budget=18)

    # (B) recount irreducible words by substring checks only
    leads = set()
    for lead, _tail in sys.rules:
        leads.add(tuple(spec.arrow_names[i] for i in lead))
    max_len = max(len(l) for l in leads) + 2

    def reducible(word):
        return any(
            word[i : i + len(l)] == l
            for i in range(len(word))
            for l in leads
        )

    free = [pw for pw in enumerate_paths(spec, max_len) if not reducible(pw[0])]
    assert len(free) == 36
    longest_free = max(len(w) for w, _ in free)
    assert longest_free == 6
    # nothing irreducible at length 7 means nothing at any greater length,
    # since every longer word contains a length-7 subpath
    assert all(
        reducible(w)
        for w, _ in enumerate_paths(spec, longest_free + 1)
        if len(w) == longest_free + 1
    )
    engine_basis = {
        (tuple(spec.arrow_names[i] for i in w), v)
        for v in spec.vertices
        for w in sys.basis_by_source[v]
    }
    assert engine_basis == {(w, s) for w, s in free}

    # (C) lower bound: the 36 words carry a verified module structure
    basis = sorted(free, key=lambda ws: (len(ws[0]), ws[0]))
    index = {pw: i for i, pw in enumerate(basis)}
    mats = {}
    for a in spec.arrows:
        m = np.zeros((36, 36), dtype=np.int64)
        for (w, s), j in index.items():
            if spec.source(a) != path_target(spec, w, s):
                continue
            nf = named_normal_form(sys, (a,) + w)
            for w2, c in nf.items():
                m[index[(w2, s)], j] = c % 2
        mats[a] = m
    # original relations vanish on these matrices: checked by numpy alone
    for rel in spec.relations:
        acc = np.zeros((36, 36), dtype=np.int64)
        for w, c in rel.items():
            prod = np.eye(36, dtype=np.int64)
            for a in w:
                prod = (prod @ mats[a]) % 2
            acc = (acc + c * prod) % 2
        assert not acc.any()
    # evaluation at the sum of empty words is onto: word w maps to its own
    # basis vector, so the quotient algebra has dimension at least 36
    for (w, s), j in index.items():
        vec = np.zeros(36, dtype=np.int64)
        vec[index[((), s)]] = 1
        for a in reversed(w):
            vec = (mats[a] @ vec) % 2
        expect = np.zeros(36, dtype=np.int64)
        expect[j] = 1
        assert np.array_equal(vec, expect)
