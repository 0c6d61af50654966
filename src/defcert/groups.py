"""A two-parameter metacyclic-flavored group family, by explicit tables.

For an odd prime p and a primitive root a mod p, the full group is the
semidirect product (F_p x F_p) : F_p^* with

    ((x, y), a) * ((x', y'), a') = ((x + a x', y + a^(-1) y'), a a')

so the scalar part acts on the plane by a.(x, y) = (ax, y/a).  The
quotient drops the y coordinate (it kills the normal order-p subgroup
generated by tau).  Distinguished elements: sigma = ((1,0),1),
tau = ((0,1),1), epsilon = ((0,0),a).

Nothing downstream trusts a presentation.  Groups are multiplication
tables; representations carry one matrix per element.  `element_stack` is
the one builder of those matrices, through the normal form
sigma^x tau^y epsilon^j, and `table_mismatches` is the one check of a
stack against all |G|^2 pairs of the table.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class GroupElement:
    """One element ((x, y), a); y is always 0 in the quotient."""

    x: int
    y: int
    a: int


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
        self.avals = pow_table(a_eps, p)[js] if self.size > 1 else np.ones(
            1, dtype=np.int64
        )

    def element(self, i: int) -> GroupElement:
        return GroupElement(int(self.xs[i]), int(self.ys[i]),
                            int(self.avals[i]))

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

    def order_of(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = int(self.mul[x, g])
            k += 1
        return k

    def eps_subgroup(self) -> list:
        """Indices of the cyclic p'-complement generated by epsilon."""
        out = [self.identity]
        g = self.eps
        while g != self.identity:
            out.append(g)
            g = int(self.mul[g, self.eps])
        return sorted(out)


def pow_table(a: int, p: int) -> np.ndarray:
    """a^j mod p for j = 0..p-2."""
    out = np.ones(max(p - 1, 1), dtype=np.int64)
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
    rng = np.random.default_rng(0)
    g, h, k = rng.integers(0, n, size=(3, 256))
    if not np.array_equal(mul[mul[g, h], k], mul[g, mul[h, k]]):
        raise ValueError("associativity spot check failed")
    return table


def trivial_group(p: int) -> GroupTable:
    """One-element table; the characteristic p still tags the modules."""
    z = np.zeros(1, dtype=np.int64)
    return GroupTable(p, 1, False, z, z, z,
                      mul=np.zeros((1, 1), dtype=np.int64), inv=z.copy(),
                      sigma=0, tau=0, eps=0)


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
    deliberately no shortcut through relators.
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


def table_mismatches(table: GroupTable, moduli, act, val,
                     shift=None) -> list:
    """Sorted pairs (g, h) with act(g) val(h) + shift(g) != val(gh).

    act (size, r, k, L), val (size, k, c, L) and shift (size, r, c, L)
    are level-last stacks of canonical coefficients.  Each is converted
    once, to the dtype `flinalg.exact_product` names for inner dimension k
    with a slack of 2 max m; then each h takes one unreduced stacked
    product over every g through `coeff.convolve_levels`.  Pair (g, h) is
    right exactly when d = act(g) val(h) + shift(g) - val(gh) is 0 mod m_l
    at every level l, which `flinalg.is_multiple` decides in that dtype.
    On a float route with t mantissa bits (24 for float32, 53 for
    float64) the test is m rint(d / m) == d, exact because the product
    stays below its bound in `exact_product` and shift and val(gh) lie in
    [0, m), so |d| + m stays below that bound plus the slack, below 2^t:
    if m | d, d / m is an integer below 2^t, so the correctly rounded
    division returns it and m rint(d / m) gives d back; if not,
    m rint(d / m) is an exact multiple of m, so it is not d.  On int64
    the test is d % m == 0.
    """
    n, r, k, L = act.shape
    c = val.shape[2]
    route = flinalg.exact_product(k, moduli, 2 * max(moduli))
    stack = act.reshape(n * r, k, L).astype(route, copy=False)
    val = val.astype(route, copy=False)
    if shift is not None:
        shift = shift.astype(route, copy=False)
    mod = np.array(moduli)
    bad = []
    for h in range(n):
        d = coeff.convolve_levels(stack, val[h], route).reshape(n, r, c, L)
        d -= val[table.mul[:, h]]
        if shift is not None:
            d += shift
        wrong = ~flinalg.is_multiple(d, mod)
        neq = np.nonzero(np.any(wrong, axis=(1, 2, 3)))[0]
        bad.extend((int(g), h) for g in neq)
    return sorted(bad)


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

    tau goes to the identity; the result is rebuilt from generators and
    re-verified on the full table rather than transported along the
    projection map.
    """
    if not rep.table.quotient:
        raise ValueError("can only inflate from the quotient")
    if (full.p, full.a_eps) != (rep.table.p, rep.table.a_eps):
        raise ValueError("parameter mismatch between tables")
    return GroupRep.from_generators(
        full, rep.ring,
        {
            "sigma": rep.generator_matrix("sigma"),
            "tau": np.eye(rep.dim, dtype=np.int64),
            "epsilon": rep.generator_matrix("epsilon"),
        },
    )


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
        self._cosets = None

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
            ainv = pow(a, -1, p) if a != 1 else 1
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
            H, W = eps_character(self.table, label)
            self._proj_cache[label] = induce(H, W, self.table)
        return self._proj_cache[label]

    def component_vectors(self, N, label):
        """Basis of the a^label eigenspace of the scalar generator on N."""
        val = pow(self.table.a_eps, label, self.p)
        shifted = N.mats["epsilon"] - val * np.eye(N.dim, dtype=np.int64)
        return list(flinalg.nullspace(shifted % self.p, self.p).T)

    def component_coordinates(self, N):
        """The epsilon-eigenbasis of N in label order, with one inverse."""
        p = self.p
        pairs = [(i, v) for i in self.simple_labels
                 for v in self.component_vectors(N, i)]
        C = np.column_stack([v for _, v in pairs])
        C_inv = flinalg.inv(C, p) if C.shape[1] == N.dim else None
        if C_inv is None:
            raise ValueError("the component bases do not span the module")
        mats = {name: flinalg.matmul_mod(flinalg.matmul_mod(C_inv, a, p), C, p)
                for name, a in N.mats.items()}
        return fdmod.Coordinates(C, C_inv, np.array([i for i, _ in pairs]),
                                 mats)

    def module_dim_vector(self, M):
        out = {}
        for i in self.simple_labels:
            k = len(self.component_vectors(M, i))
            if k:
                out[i] = k
        if sum(out.values()) != M.dim:
            raise ValueError("scalar generator does not act semisimply")
        return out

    def radical_generators(self, M):
        # rad = augmentation ideal of the normal p-Sylow; over modules
        # that is generated by u - 1 for the unipotent generators u.
        eye = np.eye(M.dim, dtype=np.int64)
        return [(M.mats[u] - eye) % self.p for u in self.generators
                if u != "epsilon"]

    def _eps_cosets(self):
        if self._cosets is None:
            H = self.table.eps_subgroup()
            self._cosets = left_cosets(self.table, H)
        return self._cosets

    def yoneda_columns(self, label, N, x):
        """Hom(P_label, N) element sending the coset basis through x.

        Well-defined when x lies in the a^label eigenspace of the scalar
        generator (Frobenius reciprocity); column c is rho_N(rep_c) x.
        """
        reps, _, _ = self._eps_cosets()
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


def eps_character(table: GroupTable, i: int):
    """(subgroup, action) input for inducing the i-th scalar character."""
    p = table.p
    if not 0 <= i <= p - 2:
        raise ValueError(f"character index {i} outside 0..{p - 2}")
    H = table.eps_subgroup()
    W = {}
    for h in H:
        W[h] = np.array(
            [[pow(table.a_eps, i * int(table.js[h]), p)]], dtype=np.int64
        )
    return H, W


def left_cosets(table: GroupTable, H: list):
    """(reps, coset_of, h_of) for the left cosets gH, reps ascending."""
    Hs = sorted(set(int(h) for h in H))
    n = table.size
    coset_of = np.full(n, -1, dtype=np.int64)
    h_of = np.full(n, -1, dtype=np.int64)
    reps = []
    for g in range(n):
        if coset_of[g] >= 0:
            continue
        c = len(reps)
        reps.append(g)
        for h in Hs:
            u = int(table.mul[g, h])
            if coset_of[u] >= 0:
                raise ValueError("coset overlap; H is not a subgroup")
            coset_of[u] = c
            h_of[u] = h
    return reps, coset_of, h_of


def induce(H: list, W: dict, table: GroupTable) -> fdmod.FdModule:
    """Coset-basis induced module of the subgroup action W up to table.

    H is a list of element indices, W maps each of them to its action
    matrix over F_p.  The result has dimension [G : H] * dim W.  When H
    is the scalar-generator subgroup this produces the projective covers
    of the simples, because inducing from a p'-subgroup preserves
    projectivity; their uniserial shape is checked elsewhere, not assumed.
    """
    p = table.p
    Hs = sorted(set(int(h) for h in H))
    if table.identity not in Hs:
        raise ValueError("H does not contain the identity")
    Hset = set(Hs)
    for h1 in Hs:
        for h2 in Hs:
            if int(table.mul[h1, h2]) not in Hset:
                raise ValueError("H is not closed under multiplication")
    if set(W) != Hset:
        raise ValueError("W must assign a matrix to each element of H")
    Wm = {h: np.asarray(W[h], dtype=np.int64) % p for h in Hs}
    dW = Wm[Hs[0]].shape[0]
    for h in Hs:
        if Wm[h].shape != (dW, dW):
            raise ValueError("mixed matrix sizes in W")
    for h1 in Hs:
        for h2 in Hs:
            prod = flinalg.matmul_mod(Wm[h1], Wm[h2], p)
            if not np.array_equal(prod, Wm[int(table.mul[h1, h2])]):
                raise ValueError("W is not a representation of H")

    reps, coset_of, h_of = left_cosets(table, Hs)
    nc = len(reps)
    alg = group_algebra(table)
    mats = {}
    for name, s in alg.table.generator_indices().items():
        m = np.zeros((nc * dW, nc * dW), dtype=np.int64)
        for c, gc in enumerate(reps):
            u = int(table.mul[s, gc])
            c2 = int(coset_of[u])
            h = int(h_of[u])
            m[c2 * dW:(c2 + 1) * dW, c * dW:(c + 1) * dW] = Wm[h]
        mats[name] = m
    return fdmod.FdModule(alg, np.zeros(nc * dW, dtype=np.int64), mats)


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


def module_rep(table: GroupTable, M: fdmod.FdModule) -> GroupRep:
    """Expand a module to a full-table-verified representation."""
    if M.algebra is not group_algebra(table):
        raise ValueError("module does not live over this table")
    return GroupRep.from_generators(
        table, coeff.prime_field(table.p),
        {name: M.mats[name] for name in M.algebra.generators},
    )


def conjugation_module(rho: GroupRep) -> fdmod.FdModule:
    """Matrix space with the action f -> rho(g) f rho(g)^(-1).

    Row-major flattening, so the generator action is kron(A, inv(A).T).
    Dimension (dim rho)^2.
    """
    if rho.ring.kind != "prime_field":
        raise ValueError("conjugation module needs a residue representation")
    p = rho.ring.p
    t = rho.table
    alg = group_algebra(t)
    mats = {}
    for name, g in t.generator_indices().items():
        A = rho.residue_matrix(g)
        Ainv = rho.residue_matrix(int(t.inv[g]))
        mats[name] = np.kron(A, Ainv.T) % p
    return fdmod.FdModule(
        alg, np.zeros(rho.dim * rho.dim, dtype=np.int64), mats
    )


# ---------------------------------------------------------------------------
# first cohomology by cocycles


def cocycle_system(table: GroupTable, act, free: list, delta=None):
    """Cocycle values along the normal form and the conditions they meet.

    ``act[g]`` is the (m, m) action of element g.  The value c(s) at the
    j-th generator index s in ``free`` is the j-th m-block of the
    m len(free) unknowns x; every other generator has c(s) = 0.
    ``delta[s]`` optionally gives an (size, ...) inhomogeneous term per
    generator.  The walk sets c(g s) = c(g) + act[g] c(s) + delta_s(g)
    along sigma^x tau^y epsilon^j; the (x, y, j) index order makes every
    parent index smaller, so one forward pass writes c(g) = D[g] x + A[g].
    By the table's index formula the parent of g along s sits at g - s.
    Returns D and the system L x = r stating that same relation for every
    g and every generator s.
    """
    p = table.p
    n, m = act.shape[0], act.shape[1]
    block = {s: slice(j * m, (j + 1) * m) for j, s in enumerate(free)}
    gens = [s for s in (table.sigma, table.tau, table.eps) if s is not None]
    flat = {s: np.zeros((n, m), dtype=np.int64) if delta is None
            else np.asarray(delta[s]).reshape(n, m) for s in gens}
    D = np.zeros((n, m, len(free) * m), dtype=np.int64)
    A = np.zeros((n, m), dtype=np.int64)
    for i in range(1, n):
        s = (table.eps if table.js[i] else table.tau if table.ys[i]
             else table.sigma)
        par = i - s
        D[i] = D[par]
        if s in block:
            D[i, :, block[s]] = (D[i, :, block[s]] + act[par]) % p
        A[i] = (A[par] + flat[s][par]) % p
    rows, rhs = [], []
    for s in gens:
        gs = table.mul[:, s]
        L = D[gs] - D
        if s in block:
            L[:, :, block[s]] -= act
        rows.append((L % p).reshape(n * m, -1))
        rhs.append((A + flat[s] - A[gs]).reshape(n * m) % p)
    return D, np.concatenate(rows, axis=0), np.concatenate(rhs)


def coboundary_columns(M: fdmod.FdModule):
    """Generator values of the coboundaries g -> (g - 1)v of M.

    Returns the distinct generator element indices, in sigma, tau,
    epsilon order, and one column per basis vector v of M stacking the
    blocks (s - 1)v in that order.
    """
    t = M.algebra.table
    gens = {}
    for name in ("sigma", "tau", "epsilon"):
        g = t.generator_indices().get(name)
        if g is not None:
            gens.setdefault(g, name)
    eye = np.eye(M.dim, dtype=np.int64)
    cols = np.concatenate(
        [(M.mats[name] - eye) % t.p for name in gens.values()], axis=0
    )
    return list(gens), cols


@dataclass
class H1Result:
    dim: int
    cocycle_dim: int
    coboundary_dim: int
    representatives: list  # one (size, dim M) array per class generator


def h1_cocycles(table: GroupTable, M: fdmod.FdModule) -> H1Result:
    """dim Z^1 - dim B^1 for the action of table on M, with class reps.

    A cocycle is determined by its generator values, so the solve runs
    over those parameters; every surviving basis cocycle is then checked
    against d(gh) = d(g) + g.d(h) for all |G|^2 pairs, which keeps the
    computed dimension honest in both directions (the parameter system
    bounds it above, the verified basis below).
    """
    rep = module_rep(table, M)
    p = table.p

    gen_idx, bcols = coboundary_columns(M)
    D, system, _ = cocycle_system(table, rep.mats[:, :, :, 0], gen_idx)
    zpar = flinalg.nullspace(system, p)
    zdim = zpar.shape[1]
    DS = flinalg.matmul_mod(D, zpar, p)
    # g.d(h) + d(g) = d(gh) for every pair and every basis cocycle
    cocycles = DS[..., None]
    if table_mismatches(table, (p,), rep.mats, cocycles, shift=cocycles):
        raise RuntimeError("verified cocycle basis failed the table")

    # coboundaries are written in the same generator-value parameters, so
    # the class representatives are the cocycles that extend their span
    bdim = flinalg.rank(bcols, p)
    picks = flinalg.extend_basis(bcols, zpar, p)
    if bdim + len(picks) != zdim:
        raise RuntimeError("coboundaries escaped the cocycle space")
    return H1Result(zdim - bdim, zdim, bdim,
                    [DS[:, :, k].copy() for k in picks])
