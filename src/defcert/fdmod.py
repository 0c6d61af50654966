"""Finite-dimensional modules over presented algebras, with Hom and Ext.

An algebra handle is either a QuiverAlgebra (wrapping a completed rewriting
system) or a group-algebra handle with the same duck-typed surface (see
groups module).  Each system or table owns exactly one handle, stored on
its ``algebra`` attribute by `quiver_algebra` or `groups.group_algebra`.
A handle provides:

  p, kind, grading_labels, simple_labels, generators
  gen_block(name)            -> (src_label, tgt_label) or None
  relation_items()           -> [(id, [(coeff, word), ...]), ...]
  projective_module(label)   -> FdModule (cached per handle)
  simple_module(label)       -> FdModule
  radical_generators(M)      -> matrices on M whose images span rad M
  component_coordinates(N)   -> Coordinates of N in a basis of component
                                vectors (read through N.coordinates()):
                                the vertex blocks on a quiver, the
                                epsilon-eigenspaces on the group
  yoneda_columns(label, N, x)-> action columns of Hom(P_label, N) element x

From these facts, the radical generators and the component coordinates,
this module derives once for both kinds of handle the radical and socle
(`radical_image_columns`, `socle_columns`), the top (`top_pick`), the
simple multiplicities of a section (`section_label_dims_quotient`) and
the intertwiners (`hom_space`).  A claimed sum of simples and projectives
is certified by `sum_isomorphism`, which builds the isomorphism from the
socle and the top and verifies it; `is_isomorphic`, a search in the Hom
space, stays as its independent oracle.

One coboundary map, delta(E) = a_N E - E a_M on the graded units of
Hom_k(M, N) (`coboundary_columns`): Hom(M, N) is its kernel (`hom_space`),
and on the theta slots its columns are the coboundaries B^1 of the
extension route, which `extension_cocycles` pairs with the cocycles Z^1
for Ext^1 and for H^1 in `groups`.  Ext^1 has two independent routes:
`ext_dim` through the minimal resolution and `ext1_by_extensions`
through block-triangular extension structures.  Both give an `ExtClass`
in one format, (vector, boundary columns): the class is zero exactly
when the vector lies in the span of the boundary columns.

All modules are graded by grading_labels via block_of, one vertex per
basis vector as a fixture's vertices: line states it; group-algebra modules
use a single block.  Words act leftmost-last, so ``rho(word)`` is
the matrix product taken in written order.

Relations are evaluated in one place, `relation_values`, on level-last
action stacks: module validation and, in `deform`, the lift's truncated
replay, its mod-t^2 cocycle check and the Hensel defect.  They are
linearised in one place, `relation_derivative`, from terms kept on the
handle and subword products kept on each module, so a pair of modules
forms no product; it gives the linear system of every caller that solves
for extension data: the extension route, and in `groups` and `deform`
the cocycles of H^1 and the Hensel correction.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import coeff, flinalg
from .quiver import CompletedSystem, relation_str


class RelationViolated(ValueError):
    def __init__(self, relation_id, position, value=None):
        self.relation_id = relation_id
        self.position = position
        self.value = value
        super().__init__(
            f"relation {relation_id} violated at entry {position}"
            + (f" (value {value})" if value is not None else "")
        )


# A module in a basis C of component vectors: labels[j] indexes
# simple_labels for column j of C, and mats[name] is C^-1 a C.
Coordinates = namedtuple("Coordinates", "C C_inv labels mats")


class FdModule:
    """Module given by one action matrix per algebra generator.

    block_of[i] is the index into algebra.grading_labels of basis vector i;
    the vertex idempotents act as the 0/1 diagonal projectors of that
    grading.  With check=True, `validate_module` checks that every
    generator respects the grading and that every defining relation holds.

    The action matrices are read-only, so the module keeps what is derived
    from them on first use: its component coordinates, and read-only its
    socle, cover, syzygy, relation subword products and Yoneda bases.
    """

    def __init__(self, algebra, block_of, mats, check=True):
        self.algebra = algebra
        self.block_of = np.asarray(block_of, dtype=np.int64)
        self.dim = int(self.block_of.shape[0])
        p = algebra.p
        self.mats = {}
        for name in algebra.generators:
            a = np.asarray(mats.get(name, np.zeros((self.dim, self.dim))),
                           dtype=np.int64) % p
            if a.shape != (self.dim, self.dim):
                raise ValueError(f"matrix for {name} has shape {a.shape}")
            a.flags.writeable = False
            self.mats[name] = a
        self._coords = self._socle = self._cover = self._syzygy = None
        self._subwords, self._yoneda = None, {}
        if check and self.dim:
            bad = validate_module(self)
            if bad is not None:
                raise bad

    @property
    def p(self):
        return self.algebra.p

    def dimension_vector(self):
        """{label: multiplicity} of the simples in this module, zeros left
        out: the labels of its component coordinates, counted."""
        counts = np.bincount(self.coordinates().labels)
        return {self.algebra.simple_labels[i]: int(n)
                for i, n in enumerate(counts) if n}

    def block_indices(self, label_idx):
        return np.nonzero(self.block_of == label_idx)[0]

    def coordinates(self) -> Coordinates:
        """The handle's component coordinates of this module, cached."""
        if self._coords is None:
            self._coords = self.algebra.component_coordinates(self)
        return self._coords

    def __repr__(self):
        return f"FdModule(dim={self.dim}, algebra={self.algebra.kind})"


def zero_module(algebra):
    return FdModule(algebra, np.zeros(0, dtype=np.int64), {}, check=False)


def direct_sum(modules):
    if not modules:
        raise ValueError("empty direct sum")
    alg = modules[0].algebra
    if any(m.algebra is not alg for m in modules):
        raise ValueError("direct sum across different algebra handles")
    block_of = np.concatenate([m.block_of for m in modules])
    n, at = len(block_of), 0
    mats = {name: np.zeros((n, n), dtype=np.int64) for name in alg.generators}
    for m in modules:
        for name in alg.generators:
            mats[name][at : at + m.dim, at : at + m.dim] = m.mats[name]
        at += m.dim
    return FdModule(alg, block_of, mats, check=False)


# ---------------------------------------------------------------------------
# validation


def relation_values(algebra, stacks, moduli, dim):
    """Yield (relation id, value) for each defining relation of algebra.

    stacks maps each generator to a level-last (..., dim, dim, L) stack of
    canonical coefficients over the level moduli, leading axes broadcast.
    A word's value is the `coeff.level_matmul` product of its generators
    in written order, the empty word's the identity of size dim.
    """
    ident = np.zeros((dim, dim, len(moduli)), dtype=np.int64)
    ident[..., 0] = np.eye(dim, dtype=np.int64)

    def word_value(word):
        term = stacks[word[0]] if word else ident
        for name in word[1:]:
            term = coeff.level_matmul(moduli, term, stacks[name])
        return term

    for rel_id, combo in algebra.relation_items():
        yield rel_id, sum((c * word_value(w) for c, w in combo),
                          0 * ident) % np.array(moduli)


def relation_terms(algebra):
    """(subwords, relation count, Fox terms) of algebra, once per handle.

    The subwords are every w[:k] and w[k + 1:] of every relation word w,
    shortest first.  Letter s = w[k] of a word c w of relation r is the
    term (r, index of s, c mod p, index of w[:k], index of w[k + 1:]), a
    column of a (5, terms) int64 array.
    """
    if getattr(algebra, "_relation_terms", None) is None:
        rels = algebra.relation_items()
        letters = [(r, c, w, k) for r, (_, combo) in enumerate(rels)
                   for c, w in combo for k in range(len(w))]
        subs = {u for *_, w, k in letters for u in (w[:k], w[k + 1:])}
        words = sorted(subs | {()}, key=lambda u: (len(u), u))
        at = {u: x for x, u in enumerate(words)}
        algebra._relation_terms = words, len(rels), np.array(
            [(r, algebra.generators.index(w[k]), c % algebra.p, at[w[:k]],
              at[w[k + 1:]]) for r, c, w, k in letters],
            np.int64).reshape(-1, 5).T
    return algebra._relation_terms


def relation_subword_stack(M):
    """rho_M(u) of the subwords u of `relation_terms`, a read-only (words,
    dim, dim) stack built once per module; a prefix or suffix u extends
    u[:-1] or u[1:], the entry a letter shorter, by one product."""
    if M._subwords is None:
        rho = {(): np.eye(M.dim, dtype=np.int64)}
        for u in relation_terms(M.algebra)[0][1:]:
            rho[u] = (flinalg.matmul_mod(rho[u[:-1]], M.mats[u[-1]], M.p)
                      if u[:-1] in rho else
                      flinalg.matmul_mod(M.mats[u[0]], rho[u[1:]], M.p))
        M._subwords = np.stack(list(rho.values()))
        M._subwords.flags.writeable = False
    return M._subwords


def relation_derivative(N, M, slots):
    """Each relation's t-linear top-right block as rows over the slots.

    Generator a acts on N + M by [[a_N, t theta_a], [0, a_M]], theta_a on
    slots[a] of a boolean (generators, dim N, dim M) mask.  A word s_1 ...
    s_k has the block (Fox's free derivative) sum_i rho_N(s_1 ... s_(i-1))
    theta_(s_i) rho_M(s_(i+1) ... s_k).  Each relation gives its entries
    row-major as rows, over the slots (a, i, j) row-major.  The products
    are read from the kept stacks of `relation_subword_stack`, and only
    the slot entries of theta are formed.
    """
    _, rels, (rel, gen, coeff, pre, suf) = relation_terms(M.algebra)
    n, m = slots.shape[1:]
    g, i, j = np.nonzero(slots)
    # term t at its slot (s, i, j) adds c rho_N(pre)[:, i] rho_M(suf)[j, :]
    # to the rows of its relation; an entry sums at most one per letter
    t, at = np.nonzero(gen[:, None] == g)
    flinalg.exact_product(len(gen), (M.p,))
    left = relation_subword_stack(N)[pre[t], :, i[at]] * coeff[t, None] % M.p
    right = relation_subword_stack(M)[suf[t], j[at]]
    out = np.zeros((rels, g.size, n, m), dtype=np.int64)
    np.add.at(out, (rel[t], at), left[:, :, None] * right[:, None])
    return out.transpose(0, 2, 3, 1).reshape(rels * n * m, g.size) % M.p


def first_violation(value):
    """The first non-zero entry of a level-last (d, d, L) array, lowest
    level first and row-major inside it, as (i, j, level, entry); None
    when every entry is zero."""
    hits = np.argwhere(np.moveaxis(value, -1, 0))
    if not len(hits):
        return None
    k, i, j = (int(x) for x in hits[0])
    return i, j, k, int(value[i, j, k])


def grading_violation(M, stacks):
    """The first entry of a generator's level stack on M outside its arrow
    block, generators in order, as (name, first_violation); None when
    every level is graded."""
    for name in M.algebra.generators:
        mask = arrow_block_mask(M, M, name)
        if mask is None:
            continue
        hit = first_violation(np.where(mask[..., None], 0, stacks[name]))
        if hit is not None:
            return name, hit
    return None


def validate_module(M: FdModule):
    """Check grading blocks, then every defining relation of the algebra;
    returns the first violation as a RelationViolated, or None."""
    stacks = {name: M.mats[name][..., None] for name in M.algebra.generators}
    bad = grading_violation(M, stacks)
    if bad is not None:
        name, hit = bad
        return RelationViolated(f"grading:{name}", hit[:2])
    for rel_id, value in relation_values(M.algebra, stacks, (M.p,), M.dim):
        hit = first_violation(value)
        if hit is not None:
            return RelationViolated(rel_id, hit[:2], hit[3])
    return None


def arrow_block_mask(M, N, name):
    """Entries of a generator's action M -> N that its arrow allows.

    Boolean (dim N, dim M); the arrow maps the block of its source vertex
    in M to the block of its target vertex in N.  None when the generator
    has no arrow block (group algebras), so every entry is allowed.
    """
    blk = M.algebra.gen_block(name)
    if blk is None:
        return None
    labels = list(M.algebra.grading_labels)
    src, tgt = labels.index(blk[0]), labels.index(blk[1])
    return (N.block_of.reshape(-1, 1) == tgt) & (
        M.block_of.reshape(1, -1) == src
    )


# ---------------------------------------------------------------------------
# quiver-quotient algebra handle


class QuiverAlgebra:
    kind = "quiver"

    def __init__(self, system: CompletedSystem):
        self.system = system
        self.p = system.spec.p
        self.grading_labels = tuple(system.spec.vertices)
        self.simple_labels = self.grading_labels
        self.generators = tuple(system.spec.arrow_names)
        self._proj_cache = {}
        self._relation_items = [
            (f"rel[{i}]: {relation_str(system.spec, rel)}",
             [(c, w) for w, c in rel.items()])
            for i, rel in enumerate(system.spec.relations)
        ]

    def gen_block(self, name):
        return self.system.spec.arrows[name]

    def relation_items(self):
        return self._relation_items

    def projective_module(self, label):
        if label not in self._proj_cache:
            self._proj_cache[label] = projective_from_system(self.system, label)
        return self._proj_cache[label]

    def simple_module(self, label):
        idx = list(self.grading_labels).index(label)
        return FdModule(self, np.array([idx]), {}, check=False)

    def radical_generators(self, M):
        return [M.mats[name] for name in self.generators]

    def yoneda_columns(self, label, N, x):
        """Columns of the Hom(P_label, N) element sending e_label to x."""
        words = self.system.basis_by_source[label]
        out = np.zeros((N.dim, len(words)), dtype=np.int64)
        vals = {(): np.asarray(x, dtype=np.int64) % self.p}
        for col, w in enumerate(words):
            if w:  # its parent w[1:] comes first in the basis
                name = self.generators[w[0]]
                vals[w] = flinalg.matmul_mod(
                    N.mats[name], vals[w[1:]].reshape(-1, 1), self.p).ravel()
            out[:, col] = vals[w]
        return out

    def component_coordinates(self, N):
        """The unit basis; each vector lies in its vertex block."""
        eye = np.eye(N.dim, dtype=np.int64)
        return Coordinates(eye, eye, N.block_of, N.mats)


def projective_from_system(system: CompletedSystem, v):
    """Lambda * e_v on the irreducible-word basis with source v."""
    if v not in system.spec.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    handle = quiver_algebra(system)
    words = system.basis_by_source[v]
    pos = {w: i for i, w in enumerate(words)}
    spec = system.spec
    targets = [spec.target(spec.arrow_names[w[0]]) if w else v for w in words]
    mats = {}
    for ai, name in enumerate(spec.arrow_names):
        m = np.zeros((len(words), len(words)), dtype=np.int64)
        for w, tgt in zip(words, targets):
            if tgt == spec.source(name):
                for nw, c in system.reduce_terms({(ai,) + w: 1}).items():
                    m[pos[nw], pos[w]] = c % spec.p
        mats[name] = m
    labels = list(spec.vertices)
    block_of = [labels.index(tgt) for tgt in targets]
    return FdModule(handle, np.array(block_of, dtype=np.int64), mats)


def quiver_algebra(system: CompletedSystem) -> QuiverAlgebra:
    """The system's one handle, so modules over it stay comparable."""
    if system.algebra is None:
        system.algebra = QuiverAlgebra(system)
    return system.algebra


# ---------------------------------------------------------------------------
# Hom spaces


def coboundary_columns(algebra, n_mats, m_mats, n_labels, m_labels):
    """The coboundary map delta(E) = a_N E - E a_M on the graded units.

    n_mats and m_mats map each generator to its matrix on N and on M; the
    graded units are the E_kl with n_labels[k] == m_labels[l], in row-major
    (k, l) order.  Returns the int64 (generator, dim N, dim M, unit) array
    of a_N E_kl - E_kl a_M mod p.
    """
    gens, n, m = algebra.generators, len(n_labels), len(m_labels)
    a_n = np.array([n_mats[g] for g in gens],
                   np.int64).reshape(len(gens), n, n)
    a_m = np.array([m_mats[g] for g in gens],
                   np.int64).reshape(len(gens), m, m)
    k, l = np.nonzero(np.asarray(n_labels)[:, None]
                      == np.asarray(m_labels)[None, :])
    u = np.arange(k.size)
    # unit E_kl enters the entries (g, ., l) through a_N[:, k] and the
    # entries (g, k, .) through -a_M[l, :]
    out = np.zeros((len(gens), n, m, k.size), dtype=np.int64)
    out[:, :, l, u] += a_n[:, :, k]
    out[:, k, :, u] -= a_m[:, l, :].swapaxes(0, 1)
    return out % algebra.p


def hom_space(M: FdModule, N: FdModule) -> np.ndarray:
    """All grading-preserving intertwiners M -> N, as an int64 (k, dim N,
    dim M) array whose k maps are a basis, (0, dim N, dim M) when none.

    An intertwiner F maps each simple component of M into the component of
    N with the same label, so in component coordinates X = C_N^-1 F C_M it
    is label-block-diagonal.  On a quiver the components are the vertex
    blocks, which F preserves by definition.  On the group they are the
    eigenspaces of epsilon, which acts semisimply because its order p - 1
    is prime to p; F commutes with epsilon, so it maps each eigenspace
    into the one of the same eigenvalue.  So Hom is the kernel of the one
    coboundary map, `coboundary_columns`, on the label-matching units of
    the component coordinates, each of its entries a row.
    """
    if M.algebra is not N.algebra:
        raise ValueError("hom_space across different algebra handles")
    p = M.p
    cm, cn = M.coordinates(), N.coordinates()
    delta = coboundary_columns(M.algebra, cn.mats, cm.mats, cn.labels,
                               cm.labels)
    if not delta.shape[-1]:
        return np.zeros((0, N.dim, M.dim), dtype=np.int64)
    rows = delta.reshape(-1, delta.shape[-1])
    ker = flinalg.nullspace(rows[rows.any(axis=1)], p)
    k, l = np.nonzero(cn.labels[:, None] == cm.labels[None, :])
    X = np.zeros((ker.shape[1], N.dim, M.dim), dtype=np.int64)
    X[:, k, l] = ker.T
    # F = C_N X C_M^-1, which is X itself when both bases are unit bases
    if not (np.array_equal(cn.C, np.eye(N.dim))
            and np.array_equal(cm.C, np.eye(M.dim))):
        X = flinalg.matmul_mod(flinalg.matmul_mod(cn.C, X, p), cm.C_inv, p)
    return X


# ---------------------------------------------------------------------------
# radical, socle, top and section counts


def radical_image_columns(M):
    """Columns spanning rad M, the images of the radical generators."""
    gens = M.algebra.radical_generators(M)
    return flinalg.col_space_basis(
        np.concatenate([np.zeros((M.dim, 0), dtype=np.int64)] + gens, axis=1),
        M.p,
    )


def socle_columns(M):
    """Columns spanning soc M, the common kernel of the radical generators,
    built once per module."""
    if M._socle is None:
        gens = M.algebra.radical_generators(M)
        M._socle = flinalg.nullspace(np.concatenate(
            [np.zeros((0, M.dim), dtype=np.int64)] + gens, axis=0), M.p)
        M._socle.flags.writeable = False
    return M._socle


def socle_multiplicities(M):
    """{label: multiplicity} of the simples in soc M, zeros left out."""
    return section_label_dims_quotient(
        M, socle_columns(M), np.zeros((M.dim, 0), dtype=np.int64))


def top_pick(M):
    """Component vectors generating M/rad M, one per top summand.

    Greedy extension of rad M by the component basis in label order, so
    each pick lies in one component, as yoneda_columns needs.
    """
    co = M.coordinates()
    order = np.argsort(co.labels, kind="stable")
    keep = flinalg.extend_basis(radical_image_columns(M), co.C[:, order], M.p)
    labels = M.algebra.simple_labels
    return [(labels[co.labels[order[k]]], co.C[:, order[k]]) for k in keep]


def _label_ranks(M, cols):
    co = M.coordinates()
    X = flinalg.matmul_mod(co.C_inv, cols, M.p)
    out = {label: flinalg.rank(X[co.labels == i], M.p)
           for i, label in enumerate(M.algebra.simple_labels)}
    if sum(out.values()) != cols.shape[1]:
        raise ValueError("span is not graded by the simple labels")
    return out


def section_label_dims_quotient(M, upper, lower):
    """Simple multiplicities of span(upper)/span(lower).

    upper and lower are column bases, span(lower) inside span(upper).  A
    span's multiplicity of a label is the rank of its component coordinates
    C^-1 cols (from M.coordinates()) on that label's rows.  Those ranks sum
    to the column count exactly when the span is graded; ValueError
    otherwise.
    """
    hi = _label_ranks(M, upper)
    lo = _label_ranks(M, lower)
    return {label: hi[label] - lo[label] for label in hi
            if hi[label] > lo[label]}


# ---------------------------------------------------------------------------
# covers, syzygies, Ext


@dataclass
class CoverResult:
    projective: FdModule
    surjection: np.ndarray  # dim M x dim P
    summand_labels: list  # label per summand, in column-block order


def projective_cover(M: FdModule) -> CoverResult:
    """M's minimal projective cover, built once per module."""
    if M._cover is None:
        M._cover = _build_cover(M)
    return M._cover


def _build_cover(M):
    if M.dim == 0:
        raise ValueError("zero module has no projective cover")
    alg = M.algebra
    p = alg.p
    picks = top_pick(M)
    parts = [alg.projective_module(label) for label, _ in picks]
    cols = [alg.yoneda_columns(label, M, u) for label, u in picks]
    # a zero-width start lets a pick list that came back empty fail "onto"
    phi = np.concatenate([np.zeros((M.dim, 0), dtype=np.int64)] + cols,
                         axis=1) % p
    if flinalg.rank(phi, p) != M.dim:
        raise RuntimeError("cover surjection failed to be onto")
    P = direct_sum(parts)
    radP = radical_image_columns(P)
    ker = flinalg.nullspace(phi, p)
    if not flinalg.in_span(radP, ker, p):
        raise RuntimeError("cover kernel escapes the radical (not minimal)")
    phi.flags.writeable = False
    return CoverResult(P, phi, [label for label, _ in picks])


def _syzygy_with_embedding(M: FdModule):
    """(Omega M, its inclusion into the cover, the cover), built once."""
    if M._syzygy is None:
        M._syzygy = _build_syzygy(M)
        M._syzygy[1].flags.writeable = False
    return M._syzygy


def _build_syzygy(M):
    if M.dim == 0:
        return zero_module(M.algebra), np.zeros((0, 0), dtype=np.int64), None
    cover = projective_cover(M)
    P, phi = cover.projective, cover.surjection
    p = M.p
    # kernel of phi, blockwise so the grading carries over
    blocks = []
    for i in range(len(M.algebra.grading_labels)):
        idx = P.block_indices(i)
        ker = flinalg.nullspace(phi[:, idx], p)
        blk = np.zeros((P.dim, ker.shape[1]), dtype=np.int64)
        blk[idx] = ker
        blocks.append(blk)
    incl = np.concatenate(blocks, axis=1)
    if incl.shape[1] == 0:
        return zero_module(M.algebra), incl, cover
    omega = _submodule_from_columns(P, incl)
    if omega is None:
        raise RuntimeError("kernel not generator-stable")
    return omega, incl, cover


def syzygy(M: FdModule) -> FdModule:
    return _syzygy_with_embedding(M)[0]


def _yoneda_basis(N: FdModule, label):
    """Yoneda basis of Hom(P_label, N), a read-only (k, dim N, dim P_label)
    stack kept on N: `yoneda_columns` at each component vector of label."""
    if label not in N._yoneda:
        alg, co = N.algebra, N.coordinates()
        xs = co.C[:, co.labels == alg.simple_labels.index(label)].T
        N._yoneda[label] = np.array(
            [alg.yoneda_columns(label, N, x) for x in xs], np.int64).reshape(
            len(xs), N.dim, alg.projective_module(label).dim)
        N._yoneda[label].flags.writeable = False
    return N._yoneda[label]


@dataclass
class ExtClass:
    degree: int
    source: FdModule
    target: FdModule
    dim: int
    representative: object  # (vector, boundary columns) | None

    def representative_is_trivial(self):
        """The class is zero when its vector lies in the boundaries' span."""
        if self.representative is None:
            return True
        vec, boundaries = self.representative
        return flinalg.in_span(boundaries, vec, self.source.p)


def ext_dim(M: FdModule, N: FdModule, i: int) -> ExtClass:
    """dim Ext^i via the minimal resolution, i in {1, 2}."""
    if i not in (1, 2):
        raise ValueError("only Ext^1 and Ext^2 are supported")
    if i == 2:
        inner = ext_dim(syzygy(M), N, 1)
        return ExtClass(2, M, N, inner.dim, inner.representative)
    if M.dim == 0 or N.dim == 0:
        return ExtClass(1, M, N, 0, None)
    omega, incl, cover = _syzygy_with_embedding(M)
    if omega.dim == 0:
        return ExtClass(1, M, N, 0, None)
    p = M.p
    hom_omega = hom_space(omega, N)
    # Hom(P, N) on Omega: each summand P_l's Yoneda basis on its incl rows
    bases = [_yoneda_basis(N, label) for label in cover.summand_labels]
    rows = np.split(incl, np.cumsum([b.shape[2] for b in bases])[:-1])
    restr = np.concatenate([flinalg.matmul_mod(b, r, p)
                            for b, r in zip(bases, rows)])
    restr = restr.reshape(len(restr), N.dim * omega.dim).T
    dim = len(hom_omega) - flinalg.rank(restr, p)
    rep = None
    if dim > 0:
        homs = hom_omega.reshape(len(hom_omega), -1).T
        f = hom_omega[flinalg.extend_basis(restr, homs, p)[0]]
        rep = (f.ravel(), restr)
    return ExtClass(1, M, N, dim, rep)


def stable_hom_dim(M: FdModule, N: FdModule) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective."""
    return stable_rank(M, N, hom_space(M, N))


def stable_rank(M: FdModule, N: FdModule, homs: np.ndarray) -> int:
    """dim of span(homs), a `hom_space` basis of Hom(M, N), modulo the
    maps that factor through a projective: those through the cover of N."""
    if not len(homs):
        return 0
    cover = projective_cover(N)
    factored = flinalg.matmul_mod(
        cover.surjection, hom_space(M, cover.projective), M.p)
    return len(homs) - flinalg.rank(factored.reshape(-1, N.dim * M.dim), M.p)


def extension_coboundaries(M: FdModule, N: FdModule):
    """The theta slots and coboundary columns of the extension route.

    slots is boolean (generator, dim N, dim M): the entries of theta_a that
    the arrow block of a allows, every entry on a group algebra.  cob has
    one column per graded unit E_kl of Hom_k(M, N) in the grading blocks,
    the coboundary of `coboundary_columns` read on the slots in their
    row-major order.
    """
    slots = np.ones((len(M.algebra.generators), N.dim, M.dim), dtype=bool)
    for s, name in enumerate(M.algebra.generators):
        mask = arrow_block_mask(M, N, name)
        slots[s] = True if mask is None else mask
    delta = coboundary_columns(M.algebra, N.mats, M.mats, N.block_of,
                               M.block_of)
    return slots, delta[slots]


def extension_cocycles(M: FdModule, N: FdModule):
    """(coboundary columns, cocycle basis) of the extension route.

    The cocycles Z^1 are the theta on the slots of
    `extension_coboundaries` that solve the relation rows of
    `relation_derivative`, as columns over the slots; with no slot the
    basis is (0, 0) and no derivative is formed.
    """
    slots, cob = extension_coboundaries(M, N)
    if not slots.any():
        return cob, np.zeros((0, 0), dtype=np.int64)
    return cob, flinalg.nullspace(relation_derivative(N, M, slots), M.p)


def ext1_by_extensions(M: FdModule, N: FdModule) -> ExtClass:
    """Independent Ext^1 oracle via block-triangular extension structures.

    theta assigns each generator an off-diagonal block; the extension
    matrices [[a_N, theta_a], [0, a_M]] must satisfy every relation, which
    is linear in theta.  Quotient by the coboundaries theta_f: both come
    from `extension_cocycles`.
    """
    cob, sol = extension_cocycles(M, N)
    if not len(cob):  # no slot, so no extension data
        return ExtClass(1, M, N, 0, None)
    picks = flinalg.extend_basis(cob, sol, M.p)
    rep = (sol[:, picks[0]], cob) if picks else None
    return ExtClass(1, M, N, len(picks), rep)


# ---------------------------------------------------------------------------
# structure series


@dataclass
class StructureReport:
    top: dict
    socle: dict
    radical_layer_dims: list
    radical_layers: list  # label multiplicity dict per layer, top first
    composition_factors: dict
    uniserial: bool


def _radical_filtration(M):
    """Column bases of M >= rad M >= rad^2 M >= ... (strictly, down to 0)."""
    layers = [np.eye(M.dim, dtype=np.int64)]
    current = M  # the last layer as a module; layers[-1] embeds it in M
    while current.dim:
        rad = radical_image_columns(current)
        if rad.shape[1] == 0:
            break
        layers.append(flinalg.matmul_mod(layers[-1], rad, M.p))
        current = _submodule_from_columns(M, layers[-1])
        if current is None:
            raise RuntimeError("radical layer is not a submodule")
    return layers


def _blocks_of_columns(M, cols):
    """The grading block of each column; ValueError unless it has exactly one."""
    out = []
    for j in range(cols.shape[1]):
        blocks = set(M.block_of[np.nonzero(cols[:, j])[0]].tolist())
        if len(blocks) != 1:
            raise ValueError(f"column {j} does not lie in one grading block")
        out.append(blocks.pop())
    return np.array(out, dtype=np.int64)


def module_structure(M: FdModule) -> StructureReport:
    if M.dim == 0:
        return StructureReport({}, {}, [], [], {}, True)
    zero = np.zeros((M.dim, 0), dtype=np.int64)
    filt = _radical_filtration(M) + [zero]
    layer_mults = [
        section_label_dims_quotient(M, filt[k], filt[k + 1])
        for k in range(len(filt) - 1)
    ]
    comp = {}
    for mults in layer_mults:
        for label, m in mults.items():
            comp[label] = comp.get(label, 0) + m
    uniserial = all(sum(m.values()) == 1 for m in layer_mults)
    return StructureReport(
        top=layer_mults[0],
        socle=socle_multiplicities(M),
        radical_layer_dims=[sum(m.values()) for m in layer_mults],
        radical_layers=layer_mults,
        composition_factors=comp,
        uniserial=uniserial,
    )


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoResult:
    isomorphic: bool
    witness: object
    method: str
    definitive: bool

    def __bool__(self):
        return self.isomorphic


def _verify_witness(M, N, W):
    p = M.p
    if flinalg.rank(W, p) != M.dim:
        return False
    for name in M.algebra.generators:
        lhs = flinalg.matmul_mod(W, M.mats[name], p)
        rhs = flinalg.matmul_mod(N.mats[name], W, p)
        if np.any((lhs - rhs) % p):
            return False
    return True


def _combine(coeffs, basis, p):
    """sum_i coeffs[i] * basis[i] mod p, basis a (k, n, m) stack."""
    return np.tensordot(np.asarray(coeffs, dtype=np.int64), basis, 1) % p


def _invertible_in_span(basis, p, rng, samples):
    n = basis[0].shape[0]
    for _ in range(samples):
        W = _combine(rng.integers(0, p, size=len(basis)), basis, p)
        if flinalg.rank(W, p) == n:
            return W
    return None


def _first_invertible(basis, p, n):
    """First invertible combination of basis in coefficient order, or None."""
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        W = _combine(coeffs, basis, p)
        if np.any(W) and flinalg.rank(W, p) == n:
            return W
    return None


def is_isomorphic(M: FdModule, N: FdModule) -> IsoResult:
    """Search for an invertible intertwiner M -> N.

    Exhaustive when the Hom space has at most 2^20 elements, otherwise
    1000 random draws seeded with 0; a miss there is reported as not
    definitive.  It solves the whole Hom space, so the program certifies
    a claimed decomposition with `sum_isomorphism` instead; this search
    stays as the independent oracle that tests compare it with, and as a
    name the benchmark's tracer wraps.
    """
    if M.algebra is not N.algebra:
        raise ValueError("is_isomorphic across different algebra handles")
    if M.dim != N.dim or M.dimension_vector() != N.dimension_vector():
        return IsoResult(False, None, "dimension-vector", True)
    if M.dim == 0:
        return IsoResult(True, np.zeros((0, 0), dtype=np.int64), "trivial", True)
    p = M.p
    homs = hom_space(M, N)
    if not len(homs):
        return IsoResult(False, None, "hom-space-empty", True)
    if p ** len(homs) <= 2**20:
        W = _first_invertible(homs, p, M.dim)
        if W is None:
            return IsoResult(False, None, "exhaustive", True)
        method = "exhaustive"
    else:
        rng = np.random.default_rng(0)
        W = _invertible_in_span(homs, p, rng, 1000)
        if W is None:
            return IsoResult(False, None, "random", False)
        method = "random"
    if not _verify_witness(M, N, W):
        raise RuntimeError("isomorphism witness fails to intertwine")
    return IsoResult(True, W, method, True)


def sum_isomorphism(M: FdModule, simples, projectives) -> IsoResult:
    """Whether M is the sum N of the simples S_j, j in simples, and the
    projectives P_i, i in projectives, decided by building the map N -> M.

    Dimension, top multiplicities (the labels of `top_pick`) and socle
    multiplicities are isomorphism invariants, so a difference in any is a
    definitive no.  Otherwise the witness W is built one column block per
    summand, in N's basis order: S_j goes to the next socle vector of
    component j outside rad M, and P_i to the Yoneda image of the next top
    pick of label i.  W is an isomorphism exactly when `_verify_witness`
    passes (rank and every generator); a W that fails proves nothing, as
    greedy picks may miss an isomorphism that exists, so that no is not
    definitive.
    """
    alg = M.algebra
    N = direct_sum([alg.simple_module(j) for j in simples]
                   + [alg.projective_module(i) for i in projectives])
    if M.dim != N.dim:
        return IsoResult(False, None, "dimension", True)
    picks = top_pick(M)  # in label order, as for N
    if [label for label, _ in picks] != [label for label, _ in top_pick(N)]:
        return IsoResult(False, None, "top", True)
    if socle_multiplicities(M) != socle_multiplicities(N):
        return IsoResult(False, None, "socle", True)
    p, co, rad = M.p, M.coordinates(), radical_image_columns(M)
    soc = flinalg.matmul_mod(co.C_inv, socle_columns(M), p)  # in components
    socle_free = {}  # label -> iterator over its vectors, as is tops
    for j in set(simples):
        # soc M is graded, so its projection to component j is soc M there
        on_j = co.labels == alg.simple_labels.index(j)
        cand = flinalg.matmul_mod(co.C[:, on_j], soc[on_j], p)
        socle_free[j] = iter(cand[:, flinalg.extend_basis(rad, cand, p)].T)
    tops = {i: iter([x for at, x in picks if at == i])
            for i in set(projectives)}
    # a zero column where the socle vectors run out fails the rank check
    W = np.concatenate(
        [next(socle_free[j], np.zeros(M.dim, dtype=np.int64))[:, None]
         for j in simples]
        + [alg.yoneda_columns(i, M, next(tops[i])) for i in projectives],
        axis=1) % p
    if _verify_witness(N, M, W):
        return IsoResult(True, W, "constructed", True)
    return IsoResult(False, None, "constructed", False)


def _submodule_from_columns(M, cols):
    """span(cols) as a module, or None unless every generator keeps it.

    One solve of cols X = [a_1 cols | a_2 cols | ...] gives every action.
    """
    gens = M.algebra.generators
    imgs = [flinalg.matmul_mod(M.mats[name], cols, M.p) for name in gens]
    act = flinalg.solve(cols, np.concatenate(imgs, axis=1), M.p)
    if act is None:
        return None
    mats = dict(zip(gens, np.split(act, len(gens), axis=1)))
    return FdModule(M.algebra, _blocks_of_columns(M, cols), mats, check=False)


# ---------------------------------------------------------------------------
# module fixture files


def _as_vertex(tok: str):
    try:
        return int(tok)
    except ValueError:
        return tok


def parse_module_fixture(text: str, algebra) -> FdModule:
    """dim:/vertices:/matrix <gen>: sections; omitted generators act as 0.

    Each matrix entry is read as its residue mod p, taken on the Python
    int, so -1 is p - 1 and an entry past int64 is exact.  A header given
    twice raises ValueError naming the second one's line.
    """
    labels = list(algebra.grading_labels)
    dim = block_labels = current = None
    mats = {}  # generator -> its rows, filled as they are read
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        low = stripped.lower()
        if low.startswith("algebra:"):
            continue  # resolved by the caller
        if low.startswith("dim:"):
            if dim is not None:
                raise ValueError(f"line {lineno}: second dim: line")
            dim = int(stripped.split(":", 1)[1])
            continue
        if low.startswith("vertices:"):
            if block_labels is not None:
                raise ValueError(f"line {lineno}: second vertices: line")
            block_labels = [
                _as_vertex(t) for t in stripped.split(":", 1)[1].split()
            ]
            for b in block_labels:
                if b not in labels:
                    raise ValueError(f"line {lineno}: unknown vertex {b}")
            continue
        if low.startswith("matrix"):
            parts = stripped.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: matrix names no generator")
            current = parts[1].rstrip(":").strip()
            if current in mats:
                raise ValueError(
                    f"line {lineno}: second matrix {current}: section")
            mats[current] = []
            continue
        if current is None:
            raise ValueError(f"line {lineno}: unexpected {stripped!r}")
        mats[current].append([int(t) % algebra.p for t in stripped.split()])
    if dim is None:
        raise ValueError("missing dim: line")
    if block_labels is None:
        if len(labels) != 1:
            raise ValueError("missing vertices: line for a graded algebra")
        block_of = np.zeros(dim, dtype=np.int64)
    else:
        if len(block_labels) != dim:
            raise ValueError("vertices: length does not match dim:")
        block_of = np.array([labels.index(b) for b in block_labels])
    built = {}
    for name, rowdata in mats.items():
        if name not in algebra.generators:
            raise ValueError(f"unknown generator {name!r}")
        m = np.array(rowdata, dtype=np.int64)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix {name} has shape {m.shape}")
        built[name] = m
    return FdModule(algebra, block_of, built)
