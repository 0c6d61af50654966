"""Quiver presentations and noncommutative rewriting over F_p.

Words are tuples in written order, of arrow names in a presentation and
of arrow indices in a `CompletedSystem`: the rightmost arrow acts first,
so ("gamma", "beta") is the path "first beta, then gamma" and is
composable when source(gamma) = target(beta).  Monomial order is
degree-lexicographic with the lexicographic tie-break taken in arrow
declaration order; it is admissible, so rewriting leading words to strictly
smaller tails terminates.

Completion, the basis search and `CompletedSystem` share one rule store,
an insertion-ordered dict lead -> tail, and one first-letter index of its
leads.  A normal form is one pass, largest word first: a word is final if
no lead occurs in it, else its leftmost lead rewrites it to smaller words.
Rewriting words are byte strings, one byte per arrow index (so at most
256 arrows), which compare like the int tuples that `CompletedSystem`
shows; every occurrence, overlap and prefix test is a C substring search.
A new rule re-reduces only the tails its lead occurs in: the others are
irreducible against the store less the rules that lead retires.

Completion first looks for a loop witness: a loop alpha of which no
relation contains a pure power.  Sending alpha to t and every other arrow
to 0 then maps the quotient onto k[alpha], so it is infinite-dimensional,
and `complete` raises InfiniteDimensionError naming the loop before any
S-pair; `family3_printed_spec()` is caught this way.  Otherwise overlap
(critical-pair) closure runs on the relation set until every S-polynomial
reduces to zero, keeping the rule set interreduced, and the irreducible
words form a basis of the quotient.  The witness sees only loops, so a
quotient it passes may still be infinite-dimensional (a free 2-cycle, say):
then a resource guard of the completion or the basis search's length cap
raises a plain CapExceededError, which says only that a guard tripped.
"""

from __future__ import annotations

from collections import deque


class CapExceededError(RuntimeError):
    """Completion or basis search hit the length cap."""


class InfiniteDimensionError(CapExceededError):
    """A loop witness: the quotient maps onto k[loop], so no cap holds it."""

    def __init__(self, loop):
        super().__init__(loop)
        self.loop = loop

    def __str__(self):
        return (f"loop {self.loop}: the quotient maps onto k[{self.loop}], "
                "so it is infinite-dimensional")


class QuiverSpec:
    """A quiver with relations over F_p.

    Arrows keep declaration order (it fixes the monomial order).  Relations
    are {word: coefficient} dicts, stored normalized: coefficients canonical
    mod p, terms parallel and composable, every monomial of length >= 2.
    """

    def __init__(self, p, vertices, arrows, relations=(), suggested_cap=None):
        self.p = p
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.arrows = dict(arrows)  # name -> (src, tgt), insertion ordered
        if len(self.arrows) > 256:
            raise ValueError("over 256 arrows: words hold a byte per arrow")
        for name, (s, t) in self.arrows.items():
            if s not in self.vertices or t not in self.vertices:
                raise ValueError(f"arrow {name} references unknown vertex")
        self.arrow_names = tuple(self.arrows)
        self.arrow_index = {a: i for i, a in enumerate(self.arrow_names)}
        self.suggested_cap = suggested_cap
        self.relations = [self._normalize_relation(r) for r in relations]

    def source(self, name):
        return self.arrows[name][0]

    def target(self, name):
        return self.arrows[name][1]

    def word_endpoints(self, word: tuple[str, ...]):
        """(source, target) of a composable nonempty word; raises otherwise."""
        if not word:
            raise ValueError("empty word has no canonical endpoints")
        for name in word:
            if name not in self.arrows:
                raise ValueError(f"unknown arrow {name!r}")
        for left, right in zip(word, word[1:]):
            if self.source(left) != self.target(right):
                raise ValueError(
                    f"word {'*'.join(word)} is not composable at {left}*{right}"
                )
        return self.source(word[-1]), self.target(word[0])

    def _normalize_relation(self, terms: dict) -> dict:
        out = {}
        for word, c in terms.items():
            word = tuple(word)
            c = c % self.p
            if c == 0:
                continue
            if len(word) < 2:
                raise ValueError("relation monomials must have length >= 2")
            self.word_endpoints(word)
            out[word] = (out.get(word, 0) + c) % self.p
        out = {w: c for w, c in out.items() if c}
        if not out:
            raise ValueError("relation is identically zero")
        ends = {self.word_endpoints(w) for w in out}
        if len(ends) != 1:
            raise ValueError("relation terms are not parallel paths")
        return out

    def __repr__(self):
        return (
            f"QuiverSpec(p={self.p}, {len(self.vertices)} vertices, "
            f"{len(self.arrows)} arrows, {len(self.relations)} relations)"
        )


# ---------------------------------------------------------------------------
# relation printing


def relation_str(spec: QuiverSpec, terms: dict) -> str:
    key = lambda w: (len(w), tuple(spec.arrow_index[a] for a in w))
    parts = []
    for word in sorted(terms, key=key, reverse=True):
        c = terms[word] % spec.p
        body = "*".join(word)
        parts.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# builtin family presentations


def _rel(*chunks):
    """Concatenate pieces written left to right; a (piece, k) chunk repeats
    piece k times."""
    word = []
    for chunk in chunks:
        if isinstance(chunk, tuple) and len(chunk) == 2 and isinstance(chunk[1], int):
            word.extend(list(chunk[0]) * chunk[1])
        else:
            word.extend(chunk)
    return tuple(word)


def builtin_family(family: str, d: int) -> QuiverSpec:
    """The three builtin basic-algebra presentations, over F_2.

    Families I and II take any d >= 2 (the long relation words repeat a
    4-cycle 2^(d-1)-1 times).  Family III exists only at d = 3; its loop
    needs a closure relation on top of the four printed strand relations,
    without which the loop powers alpha^k stay irreducible and the algebra
    is infinite-dimensional (`loop_witness` names alpha there).
    """
    cap = 8 * 2 ** (d - 1) + 8
    if family == "I":
        if d < 2:
            raise ValueError("family I needs d >= 2")
        e = 2 ** (d - 1) - 1
        b, g, dl, h = "beta", "gamma", "delta", "eta"
        arrows = {b: (1, 0), g: (0, 1), dl: (0, 2), h: (2, 0)}
        rels = [
            {_rel([b, g, b]): 1, _rel([h, dl, b], ([g, h, dl, b], e)): -1},
            {_rel([g, b, g]): 1, _rel([g, h, dl], ([b, g, h, dl], e)): -1},
            {_rel([h, dl, h]): 1, _rel([b, g, h], ([dl, b, g, h], e)): -1},
            {_rel([dl, h, dl]): 1, _rel([dl, b, g], ([h, dl, b, g], e)): -1},
            {_rel([dl, b, g, b]): 1},
            {_rel([g, h, dl, h]): 1},
        ]
        return QuiverSpec(2, (1, 0, 2), arrows, rels, suggested_cap=cap)
    if family == "II":
        if d < 2:
            raise ValueError("family II needs d >= 2")
        e = 2 ** (d - 1) - 1
        b, g, dl, h, k, l = "beta", "gamma", "delta", "eta", "kappa", "lambda"
        arrows = {
            b: (0, 1), g: (1, 0), dl: (1, 2), h: (2, 1), k: (0, 2), l: (2, 0)
        }
        rels = [
            {_rel([dl, b]): 1, _rel([k, l, k]): -1},
            {_rel([g, h]): 1, _rel([l, k, l]): -1},
            {_rel([l, dl]): 1, _rel([g, b, g]): -1},
            {_rel([h, k]): 1, _rel([b, g, b]): -1},
            {_rel([b, l]): 1, _rel([h], ([dl, h], e)): -1},
            {_rel([k, g]): 1, _rel([dl], ([h, dl], e)): -1},
            {_rel([dl, b, g]): 1},
            {_rel([g, h, dl]): 1},
            {_rel([h, k, l]): 1},
        ]
        return QuiverSpec(2, (0, 1, 2), arrows, rels, suggested_cap=cap)
    if family == "III":
        if d != 3:
            raise ValueError("family III exists only at d = 3")
        return QuiverSpec(
            2,
            (1, 0, 2),
            _family3_arrows(),
            _family3_relations(closure=True),
            suggested_cap=cap,
        )
    raise ValueError(f"unknown family {family!r}")


def _family3_arrows():
    a, b, g, dl, h = "alpha", "beta", "gamma", "delta", "eta"
    return {a: (1, 1), b: (1, 0), g: (0, 1), dl: (0, 2), h: (2, 0)}


def _family3_relations(closure: bool):
    """The four printed strand relations, optionally closed off.

    The four strand relations alone leave every power of the loop alpha
    irreducible, so the path algebra modulo them is infinite-dimensional.
    Closing the presentation needs the identification gamma*beta = alpha^3
    (the two-step loop through the middle vertex is the cube of the arrow
    loop) plus the two short socle killers delta*beta*alpha and
    gamma*eta*delta*eta that the other two families carry in the analogous
    positions.  Among the candidate closures alpha^s for s = 2, 3 this is
    the one whose completion has Cartan determinant 64 = 2^(d+3) at d = 3,
    matching families I and II at the same parameter; both choices give
    symmetric socles, uniform Loewy length 9 and the expected
    dimension-1 Hom/Ext values for the 5-dimensional fixture module.
    """
    a, b, g, dl, h = "alpha", "beta", "gamma", "delta", "eta"
    rels = [
        {_rel([b, a]): 1, _rel([h, dl, b], ([g, h, dl, b], 1)): -1},
        {_rel([a, g]): 1, _rel([g, h, dl], ([b, g, h, dl], 1)): -1},
        {_rel([h, dl, h]): 1, _rel([b, g, h], ([dl, b, g, h], 1)): -1},
        {_rel([dl, h, dl]): 1, _rel([dl, b, g], ([h, dl, b, g], 1)): -1},
    ]
    if closure:
        rels.append({_rel([g, b]): 1, _rel([a, a, a]): -1})
        rels.append({_rel([dl, b, a]): 1})
        rels.append({_rel([g, h, dl, h]): 1})
    return rels


def family3_printed_spec() -> QuiverSpec:
    """Family III with only the four printed relations (no loop closure)."""
    return QuiverSpec(
        2, (1, 0, 2), _family3_arrows(), _family3_relations(closure=False),
        suggested_cap=8 * 2**2 + 8,
    )


# ---------------------------------------------------------------------------
# completion


class CompletedSystem:
    """A confluent rewriting system plus the irreducible-word basis.

    rules: list of (lead, tail) with lead an int-tuple word and tail a dict
    of strictly smaller words, in the order of the completion's rule store,
    which `reduce_terms` rewrites with through its first-letter lead index;
    basis_by_source[v] lists irreducible words with source v in
    length-then-lex order (index 0 is the empty word e_v).  algebra is the
    system's one module-algebra handle, filled by `fdmod.quiver_algebra`.
    """

    def __init__(self, spec, store, by_first, basis_by_source):
        self.spec = spec
        self.rules = [(tuple(lead), {tuple(w): c for w, c in tail.items()})
                      for lead, tail in store.items()]
        self.basis_by_source = {v: [tuple(w) for w in words]
                                for v, words in basis_by_source.items()}
        self.dim = sum(len(ws) for ws in basis_by_source.values())
        self.algebra = None
        self._store = store
        self._by_first = by_first

    def dims_by_source(self):
        return {v: len(ws) for v, ws in self.basis_by_source.items()}

    def reduce_terms(self, terms: dict) -> dict:
        """Full normal form of {int-word: coeff}: the one normal form."""
        nf = _reduce({bytes(w): c for w, c in terms.items()}, self._store,
                     self._by_first, self.spec.p)
        return {tuple(w): c for w, c in nf.items()}


def _lead_index(store):
    """First letter -> the store's leads that start with it, in store order."""
    by_first = {}
    for lead in store:
        by_first.setdefault(lead[0], []).append(lead)
    return by_first


def _find_reduction(word, by_first):
    """(pos, lead) of the leftmost lead occurring in word, or None."""
    for pos, letter in enumerate(word):
        for lead in by_first.get(letter, ()):
            if word.startswith(lead, pos):
                return pos, lead
    return None


def _reduce(terms, store, by_first, p):
    """Normal form of {word: coeff} in one pass, largest word first.

    A rewrite only makes words smaller than the one it rewrites, so the
    largest word left is final once irreducible.
    """
    terms = {w: c % p for w, c in terms.items() if c % p}
    out = {}
    while terms:
        word = max(terms, key=lambda w: (len(w), w))
        c = terms.pop(word)
        hit = _find_reduction(word, by_first)
        if hit is None:
            out[word] = c
            continue
        pos, lead = hit
        pre, suf = word[:pos], word[pos + len(lead) :]
        for tw, tc in store[lead].items():
            nw = pre + tw + suf
            nc = (terms.get(nw, 0) + c * tc) % p
            if nc:
                terms[nw] = nc
            else:
                terms.pop(nw, None)
    return out


def loop_witness(spec: QuiverSpec):
    """A loop of which no relation has a pure power as a term, or None.

    Sending the loop to t, its vertex idempotent to 1 and every other arrow
    and idempotent to 0 kills each relation (terms are stored one per
    distinct word, so no pure power means image 0), so the quotient maps
    onto k[loop].

    >>> loop_witness(family3_printed_spec())
    'alpha'
    """
    for name, (s, t) in spec.arrows.items():
        if s == t and not any(
            all(a == name for a in word)
            for rel in spec.relations
            for word in rel
        ):
            return name
    return None


def complete(spec: QuiverSpec, cap: int | None = None) -> CompletedSystem:
    """Overlap completion of the relation ideal, then the basis search.

    Fails with InfiniteDimensionError, before any rewriting, if a loop
    witness exists; otherwise with CapExceededError if an irreducible word
    of length == cap exists, if a word of an input relation is longer than
    2 cap (the message then blames the presentation, not the completion),
    or if the rule set refuses to converge within generous guards.
    """
    loop = loop_witness(spec)
    if loop is not None:
        raise InfiniteDimensionError(loop)
    if cap is None:
        cap = spec.suggested_cap or 64
    p = spec.p
    store, by_first = {}, {}  # the rule store lead -> tail and its index
    pending = deque({bytes(spec.arrow_index[a] for a in w): c
                     for w, c in rel.items()} for rel in spec.relations)
    given = {w for rel in pending for w in rel}
    spairs_done = 0
    while pending:
        poly = _reduce(pending.popleft(), store, by_first, p)
        if not poly:
            continue
        lead = max(poly, key=lambda w: (len(w), w))
        if len(lead) > 2 * cap:
            raise CapExceededError(
                f"a relation word in the presentation has length {len(lead)}"
                f" > {2 * cap}" if lead in given else
                f"completion produced a rule of length {len(lead)} > {2 * cap}"
            )
        inv = pow(poly[lead], -1, p)
        tail = {w: (-c * inv) % p for w, c in poly.items() if w != lead}
        # retire rules whose lead the new lead reduces; requeue them whole
        for old in [w for w in store if lead in w]:
            pending.append({old: 1} | {w: -c % p for w, c in
                                       store.pop(old).items()})
        store[lead] = tail
        if len(store) > 600:
            raise CapExceededError("completion exceeded 600 rules")
        by_first = _lead_index(store)
        # reduce the tails the new lead occurs in, reading them all before
        # any is replaced; the others are irreducible against the store
        store.update({ld: _reduce(tl, store, by_first, p)
                      for ld, tl in store.items()
                      if any(lead in w for w in tl)})
        # overlap S-polynomials of the new rule with every rule, itself in
        # both orders included: u[i:] = v[:len(u) - i], in ascending overlap
        for other in store:
            for u, v in ((lead, other), (other, lead)):
                lo, i = len(u) - min(len(u), len(v)) + 1, len(u)
                while (i := u.rfind(v[:1], lo, i)) >= 0:
                    if not v.startswith(u[i:]):
                        continue
                    s = {w + v[len(u) - i :]: c for w, c in store[u].items()}
                    for w, c in store[v].items():
                        s[u[:i] + w] = (s.get(u[:i] + w, 0) - c) % p
                    pending.append(s)  # _reduce drops its zero terms
                    spairs_done += 1
                    if spairs_done > 200000:
                        raise CapExceededError("completion S-pair budget exhausted")

    basis = _irreducible_basis(spec, by_first, cap)
    return CompletedSystem(spec, store, by_first, basis)


def _irreducible_basis(spec, by_first, cap):
    """Irreducible words by source in length-then-lex order, one sorted
    level per length: a word grown by one arrow on the left is reducible
    only if a lead is a prefix of it."""
    ends = list(spec.arrows.values())  # (source, target) by arrow index
    basis = {}
    for v in spec.vertices:
        words, frontier = [b""], [b""]
        while frontier:
            nxt = []
            for w in frontier:
                at = ends[w[0]][1] if w else v
                for idx, (s, _) in enumerate(ends):
                    cand = bytes((idx,)) + w
                    if s != at or any(cand.startswith(lead)
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
    return basis
