"""A two-parameter metacyclic-flavored group family, by explicit tables.

For an odd prime p and a primitive root a mod p, the full group is the
semidirect product (F_p x F_p) : F_p^* with

    ((x, y), a) * ((x', y'), a') = ((x + a x', y + a^(-1) y'), a a')

so the scalar part acts on the plane by a.(x, y) = (ax, y/a).  The
quotient drops the y coordinate (it kills the normal order-p subgroup
generated by tau).  Distinguished elements: sigma = ((1,0),1),
tau = ((0,1),1), epsilon = ((0,0),a).

Nothing downstream trusts a presentation.  Groups are multiplication
tables, and `build_group` is their one builder, so every table has an odd
prime p and p (p - 1) or p^2 (p - 1) elements; representations carry one
matrix per element.  `element_stack` is the one builder of those
matrices, through the normal form sigma^x tau^y epsilon^j, and
`table_mismatches` is the one check of a stack against all |G|^2 pairs
of the table: an exact product, decided in the unsigned word that holds
it by `flinalg.multiple_test`'s multiplication by the inverse of each odd
modulus mod 2^w.  `build_group` checks that the handle's defining
relations hold in the table, so the systems read off them bound H^1
cocycles and Hensel corrections from above; each solution is then
verified.

Some checks follow from checks that already ran instead of running on
every pair.  `inflate` transports a verified quotient representation
along the projection that `quotient_projection` verifies on every pair,
so the composite needs no table check of its own.  At End(V) size, d^2 x
d^2 for a representation of dimension d, `conjugation_module` is the
Kronecker squares rho(s) kron rho(s^-1)^T of the generators s, checked
by module validation against the defining relations.
`conjugation_rep` compares each element of the conjugation stack with
the Kronecker square rho(g) kron rho(g^-1)^T, |G| comparisons; the
mixed-product rule turns rho's own table check into the End(V) one.
`h1_cocycles` (a) checks each coboundary column against (rho(g) - I) at
every element, which makes it a cocycle once rho is a homomorphism, (b)
runs the |G|^2 check on the class representatives only, and (c) counts
that the two span every solution of the relation rows that bound Z^1.

The projectives of the group algebra are the characters of the cyclic
p'-subgroup <epsilon> induced up (`induce`).  In the index order the
cosets of <epsilon> are the runs of p - 1 consecutive indices, which
`eps_coset_reps` checks against the table before `induce` and the
handle's `yoneda_columns` read them.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import coeff, flinalg


def multiplicative_order(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ValueError("0 has no multiplicative order")
    k, x = 1, a
    while x != 1:
        x = x * a % p
        k += 1
    return k


def smallest_primitive_root(p: int) -> int:
    for a in range(2, p):
        if multiplicative_order(a, p) == p - 1:
            return a
    raise ValueError(f"no primitive root mod {p}")


class GroupTable:
    """Immutable multiplication table for one group of the family.

    Element ((x, y), a_eps^j) sits at index (x py + y)(p - 1) + j, with
    py = 1 on the quotient (where y = 0) and py = p on the full group:
    lexicographic (x, y, j) order, so the identity sits at index 0.
    ``mul[g, h]`` is the index of the product, ``inv[g]`` of the inverse.
    ``sigma``, ``tau`` and ``eps`` are generator indices; ``tau`` is None
    in the quotient.
    ``algebra`` is the table's one group-algebra handle, filled by
    `group_algebra`.
    """

    def __init__(self, p, a_eps, quotient, xs, ys, js, mul, inv,
                 sigma, tau, eps):
        self.p = p
        self.a_eps = a_eps
        self.quotient = quotient
        self.xs = xs
        self.ys = ys
        self.js = js
        self.mul = mul
        self.inv = inv
        self.sigma = sigma
        self.tau = tau
        self.eps = eps
        self.size = len(xs)
        self.identity = 0
        self.algebra = None
        self.avals = pow_table(a_eps, p)[js]

    def find(self, x: int, y: int, a: int) -> int:
        hits = np.nonzero(
            (self.xs == x % self.p)
            & (self.ys == y % self.p)
            & (self.avals == a % self.p)
        )[0]
        if hits.size != 1:
            raise ValueError(f"no element (({x},{y}),{a})")
        return int(hits[0])

    def generator_indices(self) -> dict:
        out = {"sigma": self.sigma, "epsilon": self.eps}
        if self.tau is not None:
            out["tau"] = self.tau
        return out

    def power(self, g: int, k: int) -> int:
        acc, base = self.identity, g
        k = int(k)
        if k < 0:
            base, k = int(self.inv[g]), -k
        while k:
            if k & 1:
                acc = int(self.mul[acc, base])
            base = int(self.mul[base, base])
            k >>= 1
        return acc


def pow_table(a: int, p: int) -> np.ndarray:
    """a^j mod p for j = 0..p-2."""
    out = np.ones(p - 1, dtype=np.int64)
    for j in range(1, p - 1):
        out[j] = out[j - 1] * a % p
    return out


def build_group(p: int, a_eps: int | None = None,
                quotient: bool = False) -> GroupTable:
    """Construct and sanity-check one table of the family.

    a_eps defaults to the smallest primitive root mod p and is validated
    in any case; the scalar coordinate must generate all of F_p^*.
    """
    if p < 3 or not coeff.is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if a_eps is None:
        a_eps = smallest_primitive_root(p)
    a_eps %= p
    if a_eps == 0:
        raise ValueError("a_eps must be a unit mod p")
    order = multiplicative_order(a_eps, p)
    if order != p - 1:
        raise ValueError(
            f"a_eps={a_eps} has multiplicative order {order} mod {p}, "
            f"need {p - 1}"
        )

    py = 1 if quotient else p
    xs, ys, js = (
        c.ravel() for c in np.indices((p, py, p - 1), dtype=np.int64)
    )
    apow = pow_table(a_eps, p)
    avals = apow[js]
    ainw = apow[(-js) % (p - 1)]  # a^(-1) per element

    def index(x, y, j):
        return (x % p * py + y % p) * (p - 1) + j % (p - 1)

    mul = index(xs[:, None] + avals[:, None] * xs[None, :],
                ys[:, None] + ainw[:, None] * ys[None, :],
                js[:, None] + js[None, :])
    inv = index(-ainw * xs, -avals * ys, -js)
    n = len(xs)
    table = GroupTable(p, a_eps, quotient, xs, ys, js, mul, inv,
                       sigma=int(index(1, 0, 0)),
                       tau=None if quotient else int(index(0, 1, 0)),
                       eps=int(index(0, 0, 1)))

    ar = np.arange(n)
    if not (np.array_equal(mul[0], ar) and np.array_equal(mul[:, 0], ar)):
        raise ValueError("identity row or column broken")
    if not np.array_equal(mul[ar, inv], np.zeros(n, dtype=np.int64)):
        raise ValueError("inverse table broken")
    # Light's test: (xy)s = x(ys) for all x, y and each generator s.  The
    # elements passing it are closed under products, so once the generators
    # reach every element from the identity the table is associative.
    gens = table.generator_indices()
    for name, s in gens.items():
        if not np.array_equal(mul[mul, s], mul[:, mul[:, s]]):
            raise ValueError(f"associativity fails at generator {name}")
    reached, frontier = np.zeros(n, dtype=bool), np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached[frontier] = True
        frontier = np.unique(mul[np.ix_(frontier, list(gens.values()))])
        frontier = frontier[~reached[frontier]]
    if not reached.all():
        raise ValueError("the generators do not reach every element")
    for rid, combo in group_algebra(table).relation_items():
        ends = {functools.reduce(lambda e, s: int(mul[e, gens[s]]), w, 0)
                for _, w in combo}
        if len(ends) != 1:
            raise ValueError(f"relation {rid} fails in the table")
    return table


def quotient_projection(full: GroupTable, quot: GroupTable) -> np.ndarray:
    """Index map realizing quot as full modulo the tau subgroup.

    Verifies, on every pair, that dropping y is a surjective homomorphism
    whose kernel is exactly <tau>; by the first isomorphism theorem that
    certifies quot ~ full / <tau>.
    """
    if full.quotient or not quot.quotient:
        raise ValueError("need (full, quotient) tables in that order")
    if (full.p, full.a_eps) != (quot.p, quot.a_eps):
        raise ValueError("tables built from different parameters")
    p = full.p
    proj = full.xs * (p - 1) + full.js
    if not np.array_equal(
        proj[full.mul], quot.mul[np.ix_(proj, proj)]
    ):
        raise ValueError("projection is not a homomorphism")
    if set(np.nonzero(proj == quot.identity)[0]) != {
        full.find(0, y, 1) for y in range(p)
    }:
        raise ValueError("projection kernel is not the tau subgroup")
    if len(set(proj.tolist())) != quot.size:
        raise ValueError("projection is not onto")
    return proj


# ---------------------------------------------------------------------------
# representations


class NotAHomomorphism(ValueError):
    """A matrix stack breaks rho(g)rho(h) = rho(gh) on its table."""


class GroupRep:
    """One matrix per group element over a coefficient ring.

    ``mats`` has shape (size, d, d, levels) with the level axis matching
    the ring descriptor.  Construction from generator matrices goes
    through the normal form sigma^x tau^y epsilon^j and then checks
    rho(g) rho(h) = rho(g h) on the full multiplication table; there is
    deliberately no shortcut through relators.  Only `inflate`,
    `conjugation_rep` and `convert` skip that check, each where maps
    verified on every pair already prove it.
    """

    def __init__(self, table: GroupTable, ring: coeff.RingDescriptor,
                 mats: np.ndarray, check: bool = True):
        mats = np.asarray(mats, dtype=np.int64)
        if mats.shape[0] != table.size or mats.shape[3] != ring.levels:
            raise ValueError("matrix stack shape does not match table/ring")
        moduli = np.array(ring.moduli, dtype=np.int64)
        self.table = table
        self.ring = ring
        self.mats = mats % moduli
        self.dim = mats.shape[1]
        if check:
            bad = self.check_table()
            if bad:
                g, h = bad[0]
                raise NotAHomomorphism(
                    f"not a homomorphism: rho(g)rho(h) != rho(gh) at "
                    f"pair ({g}, {h}) and {len(bad) - 1} more"
                )

    @classmethod
    def from_generators(cls, table: GroupTable, ring: coeff.RingDescriptor,
                        gen_mats: dict, check: bool = True) -> "GroupRep":
        need = {"sigma", "epsilon"} | (
            set() if table.tau is None else {"tau"}
        )
        if set(gen_mats) - {"sigma", "tau", "epsilon"} or need - set(gen_mats):
            raise ValueError(f"generator matrices must be keyed by {need}")
        norm = {k: _as_levels(v, ring) for k, v in gen_mats.items()}
        return cls(table, ring, element_stack(table, ring.moduli, norm),
                   check=check)

    def generator_matrix(self, name: str) -> np.ndarray:
        idx = self.table.generator_indices()[name]
        return self.mats[idx]

    def residue_matrix(self, i: int) -> np.ndarray:
        return self.mats[i, :, :, 0] % self.ring.p

    def check_table(self) -> list:
        """All (g, h) with rho(g)rho(h) != rho(gh); empty means verified."""
        return table_mismatches(self.table, self.ring.moduli, self.mats,
                                self.mats)

    def convert(self, target: coeff.RingDescriptor) -> "GroupRep":
        """Reduce along a legal ring surjection (levelwise)."""
        return GroupRep(self.table, target,
                        coeff.reduce_levels(self.ring, target, self.mats),
                        check=False)


def _as_levels(m, ring: coeff.RingDescriptor) -> np.ndarray:
    m = np.asarray(m, dtype=np.int64)
    if m.ndim == 2:
        out = np.zeros(m.shape + (ring.levels,), dtype=np.int64)
        out[:, :, 0] = m
        m = out
    if m.ndim != 3 or m.shape[2] != ring.levels:
        raise ValueError("generator matrix has wrong shape")
    return m % np.array(ring.moduli, dtype=np.int64)


def element_stack(table: GroupTable, moduli, gens: dict) -> np.ndarray:
    """rho(g) for every element, as a (size, d, d, L) stack.

    ``gens`` maps "sigma", "epsilon" and, on the full group, "tau" to
    level-last (d, d, L) matrices.  Each generator is powered once, and
    the normal forms sigma^x tau^y epsilon^j are two broadcast products
    over the (x, y, j) grid, read at the table's coordinates.  The power
    lists stay in broadcast shape, so the Toeplitz expansion of the right
    operand covers p or p - 1 matrices, not one per element.
    """
    d = gens["sigma"].shape[0]
    eye = np.zeros((d, d, len(moduli)), dtype=np.int64)
    eye[:, :, 0] = np.eye(d, dtype=np.int64)

    def powers(name, top):
        out = [eye]
        for _ in range(int(top)):
            out.append(coeff.level_matmul(moduli, out[-1], gens[name]))
        return np.stack(out)

    s = powers("sigma", table.xs.max())
    t = powers("tau", table.ys.max())
    e = powers("epsilon", table.js.max())
    st = coeff.level_matmul(moduli, s[:, None], t[None])
    grid = coeff.level_matmul(moduli, st[:, :, None], e[None, None])
    return grid[table.xs, table.ys, table.js]


def _worker_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def table_mismatches(table: GroupTable, moduli, act, val,
                     shift=None) -> list:
    """Sorted pairs (g, h) with act(g) val(h) + shift(g) != val(gh).

    act (size, r, k, L), val (size, k, c, L) and shift (size, r, c, L)
    are level-last stacks of canonical coefficients.  act and val are
    converted once, to the dtype `flinalg.exact_product` names for inner
    dimension k with a slack of 2 max m; then each h takes one unreduced
    product per g, stacked over every g, through `coeff.convolve_levels`.
    The product is cast to the unsigned word of w bits that
    `flinalg.exact_word` names for the same bound, and the complement
    m - val(gh), in (0, m], and shift(g), in [0, m), are added: the sum d
    stays below the bound plus the slack, below 2^w, so it never wraps.
    Pair (g, h) is right exactly when m_l divides d, which is
    act(g) val(h) + shift(g) - val(gh) mod m_l, at every level l;
    `flinalg.multiple_test`, built once per check with its constants
    tiled over (r, c, L) when L > 1, decides that exactly for odd m, by a
    multiplication by m^-1 that wraps mod 2^w on purpose.  An even
    modulus raises ValueError before any product.

    The h range is split into one strided share per CPU the process may
    use: the calling thread checks one share and helper threads the rest.
    The per-g products are small, so BLAS mostly runs them in the thread
    that asks instead of waking threads of its own.  Every pair is
    checked once whatever the split, each verdict depends on its own pair
    alone, and the merged pairs are sorted, so the result does not depend
    on the number of shares.  Every helper is joined before the return,
    and an exception in any share is raised here rather than read as a
    share without mismatches.
    """
    n, k = act.shape[0], act.shape[2]
    word = flinalg.exact_word(k, moduli, 2 * max(moduli))
    route = flinalg.exact_product(k, moduli, 2 * max(moduli))
    complement = (np.array(moduli) - val).astype(word)
    decide = flinalg.multiple_test(moduli, word,
                                   (act.shape[1],) + val.shape[2:])
    act = act.astype(route, copy=False)
    val = val.astype(route, copy=False)
    if shift is not None:
        shift = shift.astype(word)
    shares = min(_worker_count(), n)
    found = [None] * shares  # per share: its bad pairs, or what it raised

    def check(first):
        bad = []
        try:
            for h in range(first, n, shares):
                d = coeff.convolve_levels(act, val[h], route).astype(word)
                d += complement[table.mul[:, h]]
                if shift is not None:
                    d += shift
                right = decide(d).all(axis=(1, 2, 3))
                bad.extend((int(g), h) for g in np.nonzero(~right)[0])
        except BaseException as exc:
            bad = exc
        found[first] = bad

    helpers = [threading.Thread(target=check, args=(first,))
               for first in range(1, shares)]
    for helper in helpers:
        helper.start()
    check(0)
    for helper in helpers:
        helper.join()
    for bad in found:
        if isinstance(bad, BaseException):
            raise bad
    return sorted(pair for bad in found for pair in bad)


def uniserial_representation(p: int, a_eps: int | None = None,
                             table: GroupTable | None = None) -> GroupRep:
    """The faithful uniserial (p-1)-dimensional quotient-group module.

    sigma acts by the truncated exponential of a single Jordan block: the
    k-th superdiagonal carries the inverse of k factorial.  epsilon acts
    by diag(a^(p-2), ..., a, 1).  Both facts force the conjugation
    relation epsilon sigma epsilon^(-1) = sigma^a entrywise, and the
    resulting module is uniserial with descending simple factors in
    cyclic order starting from the trivial one.

    Pass an existing quotient table to keep the result's modules
    comparable with modules already living over it.
    """
    if table is None:
        table = build_group(p, a_eps, quotient=True)
    elif (
        not table.quotient
        or table.p != p
        or (a_eps is not None and table.a_eps != a_eps)
    ):
        raise ValueError("supplied table does not match the parameters")
    a = table.a_eps
    d = p - 1
    s = np.zeros((d, d), dtype=np.int64)
    band = 1
    for k in range(d):
        if k:
            band = band * k % p
        val = pow(band, -1, p)
        idx = np.arange(d - k)
        s[idx, idx + k] = val
    e = np.diag([pow(a, p - 2 - i, p) for i in range(d)]).astype(np.int64)
    return GroupRep.from_generators(
        table, coeff.prime_field(p), {"sigma": s, "epsilon": e}
    )


def inflate(rep: GroupRep, full: GroupTable) -> GroupRep:
    """Pull a quotient-group representation back to the full group.

    rep is verified on every pair of the quotient table, as
    `GroupRep.from_generators` does by default.  The result is rep
    transported along the projection pi of `quotient_projection`, which
    verifies pi on every pair of the full table; so the composite
    rho(pi(g)) is a homomorphism with tau in its kernel, and its stack
    needs no check of its own.
    """
    proj = quotient_projection(full, rep.table)
    return GroupRep(full, rep.ring, rep.mats[proj], check=False)


# ---------------------------------------------------------------------------
# modules over the group algebra

from . import fdmod  # noqa: E402  (fdmod must not import groups)


class GroupAlgebra:
    """fdmod-protocol handle for F_p[table].

    Single grading block; simple labels are the exponents i of the
    scalar-coordinate characters epsilon -> a^i.  Module validation uses
    the six defining relations of the iterated semidirect product
    (sigma^p, tau^p, the commutator, epsilon^(p-1), and the two
    conjugation rules); these present a group of order p^2 (p-1), so
    generator matrices satisfying them carry a genuine group action.
    Representations on explicit tables never take that shortcut.
    """

    kind = "group"

    def __init__(self, table: GroupTable):
        self.table = table
        self.p = table.p
        self.grading_labels = ("*",)
        self.simple_labels = tuple(range(table.p - 1))
        self.generators = (
            ("sigma", "epsilon") if table.tau is None
            else ("sigma", "tau", "epsilon")
        )
        self._proj_cache = {}

    def gen_block(self, name):
        return None

    def relation_items(self):
        p, a = self.p, self.table.a_eps
        s, t, e = ("sigma",), ("tau",), ("epsilon",)
        items = [
            ("group:sigma^p=1", [(1, s * p), (-1, ())]),
            ("group:epsilon^(p-1)=1", [(1, e * (p - 1)), (-1, ())]),
            ("group:eps sigma=sigma^a eps", [(1, e + s), (-1, s * a + e)]),
        ]
        if self.table.tau is not None:
            ainv = pow(a, -1, p)
            items += [
                ("group:tau^p=1", [(1, t * p), (-1, ())]),
                ("group:sigma tau=tau sigma", [(1, s + t), (-1, t + s)]),
                ("group:eps tau=tau^(1/a) eps",
                 [(1, e + t), (-1, t * ainv + e)]),
            ]
        return items

    def simple_module(self, label):
        return simple_module(self.table, label)

    def projective_module(self, label):
        if label not in self._proj_cache:
            self._proj_cache[label] = induce(self.table, label)
        return self._proj_cache[label]

    def component_coordinates(self, N):
        """The epsilon-eigenbasis of N in label order, with one inverse:
        label i's component is the a^i eigenspace of the scalar generator."""
        p = self.p
        eye = np.eye(N.dim, dtype=np.int64)
        spaces = [flinalg.nullspace(
            (N.mats["epsilon"] - pow(self.table.a_eps, i, p) * eye) % p, p)
            for i in self.simple_labels]
        C = np.concatenate([np.zeros((N.dim, 0), dtype=np.int64)] + spaces,
                           axis=1)
        C_inv = flinalg.inv(C, p) if C.shape[1] == N.dim else None
        if C_inv is None:
            raise ValueError("the component bases do not span the module")
        mats = {name: flinalg.matmul_mod(flinalg.matmul_mod(C_inv, a, p), C, p)
                for name, a in N.mats.items()}
        labels = np.repeat(np.arange(len(spaces), dtype=np.int64),
                           [s.shape[1] for s in spaces])
        return fdmod.Coordinates(C, C_inv, labels, mats)

    def radical_generators(self, M):
        # rad = augmentation ideal of the normal p-Sylow; over modules
        # that is generated by u - 1 for the unipotent generators u.
        eye = np.eye(M.dim, dtype=np.int64)
        return [(M.mats[u] - eye) % self.p for u in self.generators
                if u != "epsilon"]

    def yoneda_columns(self, label, N, x):
        """Hom(P_label, N) element sending the coset basis through x.

        Well-defined when x lies in the a^label eigenspace of the scalar
        generator (Frobenius reciprocity); column c is rho_N(rep_c) x.
        """
        reps = eps_coset_reps(self.table)
        x = np.asarray(x, dtype=np.int64) % self.p
        gens = {name: N.mats[name][:, :, None] for name in self.generators}
        acts = element_stack(self.table, (self.p,), gens)[reps, :, :, 0]
        return flinalg.matmul_mod(acts, x, self.p).T


def group_algebra(table: GroupTable) -> GroupAlgebra:
    """The table's one handle, so modules over it stay comparable."""
    if table.algebra is None:
        table.algebra = GroupAlgebra(table)
    return table.algebra


def simple_module(table: GroupTable, i: int) -> fdmod.FdModule:
    """The character module where epsilon scales by a^i; sigma, tau fix."""
    p = table.p
    if not 0 <= i <= p - 2:
        raise ValueError(f"simple index {i} outside 0..{p - 2}")
    alg = group_algebra(table)
    one = np.ones((1, 1), dtype=np.int64)
    mats = {"sigma": one.copy(),
            "epsilon": one * pow(table.a_eps, i, p) % p}
    if table.tau is not None:
        mats["tau"] = one.copy()
    return fdmod.FdModule(alg, np.zeros(1, dtype=np.int64), mats)


def eps_coset_reps(table: GroupTable) -> np.ndarray:
    """rep_c = c (p - 1), the first index of each run of p - 1 indices.

    In the table's (x, y, j) index order, run 0 holds epsilon^j at index j
    and run c holds rep_c epsilon^j at rep_c + j.  Both facts are checked
    against the table, so the runs are the left cosets of <epsilon>;
    RuntimeError otherwise.
    """
    k = table.p - 1
    j = np.arange(k)
    reps = np.arange(0, table.size, k)
    if table.eps != 1 or not np.array_equal(table.mul[:k, :k],
                                            (j[:, None] + j) % k):
        raise RuntimeError("run 0 of the table is not the subgroup <epsilon>")
    if not np.array_equal(table.mul[reps[:, None], j], reps[:, None] + j):
        raise RuntimeError("a run of the table is not a coset of <epsilon>")
    return reps


def induce(table: GroupTable, label: int) -> fdmod.FdModule:
    """The character epsilon -> a^label of <epsilon> induced up to table.

    Basis vector c is the coset rep_c <epsilon> of `eps_coset_reps`.  A
    generator s sends rep_c to u = s rep_c = rep_(u // (p - 1)) epsilon^j,
    j = u mod (p - 1), so it maps vector c to a^(label j) times vector
    u // (p - 1).  Inducing from a p'-subgroup preserves projectivity, so
    this is the projective cover of the simple module `label`; its
    uniserial shape is checked elsewhere, not assumed.
    """
    p = table.p
    if not 0 <= label <= p - 2:
        raise ValueError(f"character index {label} outside 0..{p - 2}")
    reps = eps_coset_reps(table)
    n, scale = len(reps), pow_table(table.a_eps, p)
    mats = {}
    for name, s in table.generator_indices().items():
        u = table.mul[s, reps]
        m = np.zeros((n, n), dtype=np.int64)
        m[u // (p - 1), np.arange(n)] = scale[label * u % (p - 1)]
        mats[name] = m
    return fdmod.FdModule(group_algebra(table), np.zeros(n, dtype=np.int64),
                          mats)


def rep_to_module(rep: GroupRep) -> fdmod.FdModule:
    """Forget the table: the same action as a validated FdModule."""
    if rep.ring.kind != "prime_field":
        raise ValueError("only residue representations become modules")
    alg = group_algebra(rep.table)
    mats = {
        name: rep.generator_matrix(name)[:, :, 0] % rep.ring.p
        for name in alg.generators
    }
    return fdmod.FdModule(alg, np.zeros(rep.dim, dtype=np.int64), mats)


def _kronecker_squares(rho: GroupRep, elements) -> np.ndarray:
    """K_g = kron(rho(g), rho(g^-1)^T) for each g in elements, (n, d^2, d^2).

    K_g is the action of g on the matrix space, f -> rho(g) f rho(g)^(-1),
    flattened row-major; rho(g^-1) is read off rho's stack at ``inv[g]``.
    """
    if rho.ring.kind != "prime_field":
        raise ValueError("conjugation module needs a residue representation")
    res, d = rho.mats[:, :, :, 0], rho.dim
    g = np.asarray(elements)
    # K_g[(i, j), (k, l)] = rho(g)[i, k] rho(g^-1)[l, j]
    return np.einsum("gik,glj->gijkl", res[g], res[rho.table.inv[g]]).reshape(
        len(g), d * d, d * d) % rho.ring.p


def conjugation_rep(rho: GroupRep) -> GroupRep:
    """The conjugation representation g -> K_g of `_kronecker_squares`.

    The returned stack is `element_stack` of the generator matrices K_s,
    the stack `GroupRep.from_generators` builds from the module's
    generators.  Each of its |G| entries is compared with K_g, and a
    mismatch raises RuntimeError.  The (dim rho)^6-per-pair table check is
    then a theorem, not a computation: rho is verified on every pair of
    its table, by its own check or, out of `inflate`, as a composite of
    verified maps, and ``inv`` and associativity are proved in
    `build_group`, so (gh)^-1 = h^-1 g^-1, and the mixed-product rule
    gives K_g K_h = rho(g)rho(h) kron (rho(h^-1)rho(g^-1))^T = K_gh.
    """
    t, p = rho.table, rho.ring.p
    kron = _kronecker_squares(rho, np.arange(t.size))[..., None]
    stack = element_stack(t, (p,), {name: kron[g] for name, g in
                                    t.generator_indices().items()})
    if not np.array_equal(stack, kron):
        raise RuntimeError("conjugation stack differs from the Kronecker "
                           "square of rho")
    return GroupRep(t, rho.ring, stack, check=False)


def conjugation_module(rho: GroupRep) -> fdmod.FdModule:
    """The conjugation action on End(V) as a validated FdModule, from the
    generator matrices K_s alone: validation checks the defining
    relations, which present the group, so the K_s carry its action."""
    alg = group_algebra(rho.table)
    index = rho.table.generator_indices()
    K = _kronecker_squares(rho, [index[name] for name in alg.generators])
    return fdmod.FdModule(alg, np.zeros(rho.dim ** 2, dtype=np.int64),
                          dict(zip(alg.generators, K)))


# ---------------------------------------------------------------------------
# first cohomology by cocycles


def cocycle_system(table: GroupTable, act) -> np.ndarray:
    """Cocycle values at every element, linear in the generator values.

    ``act[g]`` is the (m, m) action of element g.  The unknowns x stack
    the values c(s) of the generators of `group_algebra(table)`, in its
    order, m entries each.  The walk sets c(g s) = c(g) + act[g] c(s)
    along sigma^x tau^y epsilon^j; the (x, y, j) index order makes every
    parent index smaller, so one forward pass writes c(g) = D[g] x.  By
    the table's index formula the parent of g along s sits at g - s.
    Returns D, (size, m, m len(generators)).
    """
    names = group_algebra(table).generators
    index = table.generator_indices()
    n, m = act.shape[0], act.shape[1]
    D = np.zeros((n, m, len(names), m), dtype=np.int64)
    for i in range(1, n):
        name = ("epsilon" if table.js[i] else "tau" if table.ys[i]
                else "sigma")
        par, a = i - index[name], names.index(name)
        D[i] = D[par]
        D[i, :, a] = (D[i, :, a] + act[par]) % table.p
    return D.reshape(n, m, -1)


@dataclass
class H1Result:
    dim: int
    cocycle_dim: int
    coboundary_dim: int
    representatives: list  # one (size, dim M) array per class generator


def h1_cocycles(rep: GroupRep) -> H1Result:
    """dim Z^1 - dim B^1 for the action of rep on F_p^dim, with class reps.

    rep is verified on every pair of its table: built with its check, or
    by `conjugation_rep`.  H^1(G, M) = Ext^1(k, M), k trivial: a cocycle is
    its generator values x, the theta slots of the extension route.  It
    solves the relation rows of `fdmod.relation_derivative` for (k, M) and
    the read-back rows D[s] x = x_s, where `cocycle_system` expands x to
    c(g) = D[g] x.  Every genuine cocycle solves those rows, so their
    solutions bound Z^1 above by zdim.  Three checks bound it below:

    (a) each coboundary column of `fdmod.extension_coboundaries`, the
        generator values of g -> (g - 1) e_k, expands to (rho(g) - I) e_k
        at every g: |G| checks.  Since rho is a homomorphism, such a c is
        a cocycle, c(gh) = rho(g)(rho(h) - I) e_k + (rho(g) - I) e_k =
        g.c(h) + c(g) (Brown, Cohomology of Groups, ch. IV), and the
        read-back rows hold on it;
    (b) each class representative (`picks`) satisfies
        d(gh) = d(g) + g.d(h) on all |G|^2 pairs;
    (c) bdim + len(picks) = zdim, so the columns of (a) and (b) span every
        solution.

    x -> D x is linear and, by the read-back rows, one-to-one on that span,
    so the verified cocycles have dimension zdim and Z^1 = zdim.  B^1 is
    the span of the coboundary columns.
    """
    table, p = rep.table, rep.table.p
    M = rep_to_module(rep)
    alg = M.algebra
    trivial = alg.simple_module(0)
    slots, bcols = fdmod.extension_coboundaries(trivial, M)
    act = rep.mats[:, :, :, 0]
    D = cocycle_system(table, act)
    index = table.generator_indices()
    at_gens = D[[index[name] for name in alg.generators]].reshape(
        D.shape[2], -1)
    rows = np.vstack([
        fdmod.relation_derivative(alg, M.mats, trivial.mats, slots, p),
        (at_gens - np.eye(D.shape[2], dtype=np.int64)) % p])
    zpar = flinalg.nullspace(rows, p)
    zdim = zpar.shape[1]
    # the class representatives are the cocycles that extend the span of
    # the coboundaries
    bdim = flinalg.rank(bcols, p)
    picks = flinalg.extend_basis(bcols, zpar, p)
    classes = flinalg.matmul_mod(D, zpar[:, picks], p)[..., None]
    # (a) coboundary column k expands to g -> (rho(g) - I) e_k; (b) each
    # representative has g.d(h) + d(g) = d(gh) on every pair
    eye = np.eye(rep.dim, dtype=np.int64)
    if (not np.array_equal(flinalg.matmul_mod(D, bcols, p), (act - eye) % p)
            or table_mismatches(table, (p,), rep.mats, classes,
                                shift=classes)):
        raise RuntimeError("verified cocycle basis failed the table")
    if bdim + len(picks) != zdim:  # (c)
        raise RuntimeError("coboundaries escaped the cocycle space")
    return H1Result(zdim - bdim, zdim, bdim,
                    [classes[:, :, k, 0].copy() for k in range(len(picks))])
