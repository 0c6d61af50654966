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
matrix per element.  A representation's parameters are its table's:
`uniserial_representation` takes only the quotient table and reads p and
a_eps off it, and the deformation builders of `deform` extend the
verified representation they are given instead of rebuilding it.
`element_stack` is the one builder of those matrices, through the normal
form sigma^x tau^y epsilon^j, and `table_mismatches` is the one check of
a stack against all |G|^2 pairs of the table: an exact product, decided
in the unsigned word that holds it by `flinalg.multiple_test`'s
multiplication by the inverse of each odd modulus mod 2^w.  `build_group` checks that the handle's defining
relations hold in the table, so the systems read off them bound H^1
cocycles and Hensel corrections from above; each solution is then
verified.

Some checks follow from checks that already ran instead of running on
every pair.  `inflate` transports a verified quotient representation
along the projection that `quotient_projection` verifies on every pair,
so the composite needs no table check of its own.  At End(V) size, d^2 x
d^2 for a representation of dimension d, `conjugation_module` is the
Kronecker squares rho(s) kron rho(s^-1)^T of the generators s, checked
by module validation against the defining relations; no End(V)-sized
matrix is built on every element.  `h1_cocycles` computes
H^1(G, End V) as Ext^1(V, V): each class is a 2d-dimensional extension
[[rho(s), Y_s], [0, rho(s)]].  It (a) checks each coboundary column
against rho(s) F - F rho(s) at the generators, (r) reads each expansion
back at the generators, (b) runs the |G|^2 check of `table_mismatches`
on each class's extension, on its right column [[Y], [rho]] only, and
(c) counts that the coboundaries and the representatives span every
solution of the relation rows that bound Z^1.

The projectives of the group algebra are the characters of the cyclic
p'-subgroup <epsilon> induced up (`induce`).  In the index order the
cosets of <epsilon> are the runs of p - 1 consecutive indices, which
`eps_coset_reps` checks against the table before `induce` and the
handle's `yoneda_columns` read them.
"""

from __future__ import annotations

import functools
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
    """One matrix per group element over a coefficient ring, given by its
    level moduli (`coeff`).

    ``mats`` has shape (size, d, d, levels), one level per modulus.
    Construction from generator matrices goes through the normal form
    sigma^x tau^y epsilon^j and then checks rho(g) rho(h) = rho(g h) on
    the full multiplication table; there is deliberately no shortcut
    through relators, and `from_generators` has no way to skip it.  Only
    `inflate` and `convert` construct with ``check=False``, each where
    maps verified on every pair already prove it.
    """

    def __init__(self, table: GroupTable, moduli: tuple, mats: np.ndarray,
                 check: bool = True):
        mats = np.asarray(mats, dtype=np.int64)
        if mats.shape[0] != table.size or mats.shape[3] != len(moduli):
            raise ValueError("matrix stack shape does not match table/ring")
        self.table = table
        self.moduli = moduli
        self.mats = mats % np.array(moduli, dtype=np.int64)
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
    def from_generators(cls, table: GroupTable, moduli: tuple,
                        gen_mats: dict) -> "GroupRep":
        """rho from its generator matrices, checked on every pair."""
        need = {"sigma", "epsilon"} | (
            set() if table.tau is None else {"tau"}
        )
        if set(gen_mats) != need:
            raise ValueError(f"generator matrices must be keyed by {need}")
        norm = {k: _as_levels(v, moduli) for k, v in gen_mats.items()}
        return cls(table, moduli, element_stack(table, moduli, norm))

    def generator_matrix(self, name: str) -> np.ndarray:
        idx = self.table.generator_indices()[name]
        return self.mats[idx]

    def check_table(self) -> list:
        """All (g, h) with rho(g)rho(h) != rho(gh); empty means verified."""
        return table_mismatches(self.table, self.moduli, self.mats, self.mats)

    def convert(self, target: tuple) -> "GroupRep":
        """Reduce along a legal ring surjection (levelwise)."""
        return GroupRep(self.table, target,
                        coeff.reduce_levels(self.moduli, target, self.mats),
                        check=False)


def _as_levels(m, moduli: tuple) -> np.ndarray:
    m = np.asarray(m, dtype=np.int64)
    if m.ndim == 2:
        out = np.zeros(m.shape + (len(moduli),), dtype=np.int64)
        out[:, :, 0] = m
        m = out
    if m.ndim != 3 or m.shape[2] != len(moduli):
        raise ValueError("generator matrix has wrong shape")
    return m % np.array(moduli, dtype=np.int64)


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


TABLE_BLOCK_ENTRIES = 2**18  # product entries per block of h


def table_mismatches(table: GroupTable, moduli, act, val) -> list:
    """Sorted pairs (g, h) with act(g) val(h) != val(gh).

    act (size, r, k, L) and val (size, k, c, L) are level-last stacks of
    canonical coefficients.  Both are converted once, to the dtype
    `flinalg.exact_product` names for inner dimension k with a slack of
    2 max m.  The h are taken in blocks of B consecutive indices, B =
    TABLE_BLOCK_ENTRIES // (size r c L) or 1, so that a block's products
    hold about TABLE_BLOCK_ENTRIES entries.  The block's val(h) stand side
    by side as the columns of one (k, B c, L) operand, and one unreduced
    product through `coeff.convolve_levels` gives every act(g) val(h) of
    the block, exactly, since its Toeplitz expansion acts column by
    column.  The product is cast, in (g, h) order, to the unsigned word
    of w bits that `flinalg.exact_word` names for the same bound, and the
    complement m - val(gh), in (0, m], is added: the sum d stays below
    the bound plus the slack, below 2^w, so it never wraps.
    Pair (g, h) is right exactly when m_l divides d, which is
    act(g) val(h) - val(gh) mod m_l, at every level l;
    `flinalg.multiple_test`, built once per check with its constants
    tiled over (r, c, L) when L > 1, decides that exactly for odd m, by a
    multiplication by m^-1 that wraps mod 2^w on purpose.  An even
    modulus raises ValueError before any product.
    """
    n, r, k = act.shape[:3]
    c, L = val.shape[2:]
    word = flinalg.exact_word(k, moduli, 2 * max(moduli))
    route = flinalg.exact_product(k, moduli, 2 * max(moduli))
    complement = (np.array(moduli) - val).astype(word)
    decide = flinalg.multiple_test(moduli, word, (r, c, L))
    act = act.astype(route, copy=False)
    val = val.astype(route, copy=False)
    block = max(1, TABLE_BLOCK_ENTRIES // (n * r * c * L))
    bad = []
    for first in range(0, n, block):
        hs = slice(first, first + block)
        cols = val[hs].transpose(1, 0, 2, 3).reshape(k, -1, L)
        d = coeff.convolve_levels(act, cols, route).reshape(n, r, -1, c, L)
        d = d.transpose(0, 2, 1, 3, 4).astype(word, order="C")
        d += complement[table.mul[:, hs]]
        right = decide(d).all(axis=(2, 3, 4))
        g, h = np.nonzero(~right)
        bad.extend(zip(g.tolist(), (h + first).tolist()))
    return sorted(bad)


def uniserial_representation(table: GroupTable) -> GroupRep:
    """The faithful uniserial (p-1)-dimensional module of a quotient table.

    p and a = a_eps are read off the table, which must be a quotient
    table (ValueError otherwise), so the result's modules stay comparable
    with modules already living over it.  sigma acts by the truncated
    exponential of a single Jordan block: the k-th superdiagonal carries
    the inverse of k factorial.  epsilon acts by diag(a^(p-2), ..., a, 1).
    Both facts force the conjugation relation
    epsilon sigma epsilon^(-1) = sigma^a entrywise, and the resulting
    module is uniserial with descending simple factors in cyclic order
    starting from the trivial one.
    """
    if not table.quotient:
        raise ValueError("the uniserial representation needs a quotient table")
    p, a = table.p, table.a_eps
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
    `GroupRep.from_generators` does.  The result is rep
    transported along the projection pi of `quotient_projection`, which
    verifies pi on every pair of the full table; so the composite
    rho(pi(g)) is a homomorphism with tau in its kernel, and its stack
    needs no check of its own.
    """
    proj = quotient_projection(full, rep.table)
    return GroupRep(full, rep.moduli, rep.mats[proj], check=False)


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
        rep_c is sigma^x tau^y at the table's coordinates (x, y), so the
        columns are sigma^x applied to the tau^y x, one product per power.
        """
        t, p = self.table, self.p
        reps = eps_coset_reps(t)
        cols = [np.asarray(x, dtype=np.int64) % p]
        for _ in range(t.ys.max()):
            cols.append(flinalg.matmul_mod(N.mats["tau"], cols[-1], p))
        grid = [np.stack(cols)]  # grid[x][y] = sigma^x tau^y x
        for _ in range(t.xs.max()):
            grid.append(flinalg.matmul_mod(grid[-1], N.mats["sigma"].T, p))
        return np.stack(grid)[t.xs[reps], t.ys[reps]].T


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
    if rep.moduli != (rep.table.p,):
        raise ValueError("only residue representations become modules")
    alg = group_algebra(rep.table)
    mats = {name: rep.generator_matrix(name)[:, :, 0]
            for name in alg.generators}
    return fdmod.FdModule(alg, np.zeros(rep.dim, dtype=np.int64), mats)


def conjugation_module(rho: GroupRep) -> fdmod.FdModule:
    """The conjugation action on End(V), f -> rho(g) f rho(g)^-1, as a
    validated FdModule from the generators' Kronecker squares alone.

    K_s = kron(rho(s), rho(s^-1)^T) is that action flattened row-major,
    with rho(s^-1) read off rho's stack at ``inv[s]``.  Validation checks
    the defining relations, which present the group, so the K_s carry its
    action.
    """
    if rho.moduli != (rho.table.p,):
        raise ValueError("conjugation module needs a residue representation")
    alg = group_algebra(rho.table)
    index = rho.table.generator_indices()
    g = np.array([index[name] for name in alg.generators])
    res, d = rho.mats[:, :, :, 0], rho.dim
    # K_s[(i, j), (k, l)] = rho(s)[i, k] rho(s^-1)[l, j]
    K = np.einsum("gik,glj->gijkl", res[g], res[rho.table.inv[g]]).reshape(
        len(g), d * d, d * d) % rho.table.p
    return fdmod.FdModule(alg, np.zeros(d * d, dtype=np.int64),
                          dict(zip(alg.generators, K)))


# ---------------------------------------------------------------------------
# first cohomology as self-extensions


@dataclass
class H1Result:
    dim: int
    cocycle_dim: int
    coboundary_dim: int
    representatives: list  # one (size, d, d) array Y per class generator


def h1_cocycles(rho: GroupRep) -> H1Result:
    """H^1(G, End V) = Ext^1(V, V) for V = rho, with class representatives.

    rho is verified on every pair of its table: built with its check, or
    by `inflate`.  End V = Hom(V, V), so a cocycle c of the conjugation
    action is the top-right block Y(g) = c(g) rho(g) of an extension
    [[rho(g), Y(g)], [0, rho(g)]] (Brown, Cohomology of Groups, ch. III).
    Y is fixed by its generator values Y_s, the theta slots of the
    extension route, because the generators reach every element
    (`build_group`); and Y_s solves its relation rows for (V, V), because
    the relations hold in the table.  So Y -> (Y_s) is one-to-one into the
    solutions, the cocycles of `fdmod.extension_cocycles` (V, V), which
    bound Z^1 above by zdim.
    Each class representative (`picks`) is expanded by `element_stack`
    over the 2d-dimensional generators [[rho(s), Y_s], [0, rho(s)]].
    Four checks bound Z^1 below:

    (a) each coboundary column equals rho(s) F - F rho(s) at the
        generators s, for its unit F: the top-right block of
        [[1, -F], [0, 1]] (rho + rho) [[1, F], [0, 1]], a homomorphism
        once rho is;
    (r) each expansion, read back at the generators, gives its Y_s;
    (b) each 2d extension passes `table_mismatches` on all |G|^2 pairs
        on its right column: act(g) [[Y(h)], [rho(h)]] is
        [[rho(g) Y(h) + Y(g) rho(h)], [rho(g) rho(h)]], so the check
        covers the cocycle identity and the bottom-right rho; the
        top-left block is the same products of the rho(s) as the
        bottom-right, and the bottom-left is zero;
    (c) bdim + len(picks) = zdim, so the coboundary columns and the picks
        span every solution.

    So every solution is the Y of a verified extension and Z^1 = zdim.
    B^1 is the span of the coboundary columns.
    """
    table, p, d = rho.table, rho.table.p, rho.dim
    V = rep_to_module(rho)
    alg = V.algebra
    bcols, zpar = fdmod.extension_cocycles(V, V)
    zdim = zpar.shape[1]
    # the class representatives are the solutions that extend the span of
    # the coboundaries
    bdim = flinalg.rank(bcols, p)
    picks = flinalg.extend_basis(bcols, zpar, p)
    gens = [table.generator_indices()[name] for name in alg.generators]
    r = rho.mats[gens, :, :, 0]
    units = np.eye(d * d, dtype=np.int64).reshape(d * d, d, d)
    cob = (r[:, None] @ units - units @ r[:, None]) % p  # (gen, F, d, d)
    if not np.array_equal(bcols, cob.transpose(0, 2, 3, 1).reshape(  # (a)
            bcols.shape)):
        raise RuntimeError("verified cocycle basis failed the table")
    classes = []
    for Y in zpar[:, picks].T.reshape(len(picks), len(gens), d, d):
        ext = np.zeros((len(gens), 2 * d, 2 * d, 1), dtype=np.int64)
        ext[:, :d, :d, 0] = ext[:, d:, d:, 0] = r
        ext[:, :d, d:, 0] = Y
        stack = element_stack(table, rho.moduli,
                              dict(zip(alg.generators, ext)))
        if (table_mismatches(table, rho.moduli, stack,  # (b)
                             stack[:, :, d:])
                or not np.array_equal(stack[gens, :d, d:, 0], Y)):  # (r)
            raise RuntimeError("verified cocycle basis failed the table")
        classes.append(stack[:, :d, d:, 0].copy())
    if bdim + len(picks) != zdim:  # (c)
        raise RuntimeError("coboundaries escaped the cocycle space")
    return H1Result(zdim - bdim, zdim, bdim, classes)
