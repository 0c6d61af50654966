"""Lift verification, Hensel steps, and the certified scenario reports.

Two kinds of deformation are verified here.  On the quiver side a lift of
the distinguished small module T is a family of action matrices polynomial
in t; validity means every defining relation of the completed system
vanishes identically, with the t = 0 slice recovering T on the nose.  Route
one of that check keeps its own exact polynomial arithmetic as the dual
oracle; route two, the truncated replay, and the mod-t^2 cocycle check of
the first-order class evaluate relations through `fdmod.relation_values`.  On
the group side a residue representation is pushed up the chain
Z/p -> Z/p^2 -> ... by solving the linear correction system at each level,
and the characteristic-zero obstruction identity (I + tE + ptA)^p = I + ptE
is checked by exact arithmetic in a three-level coefficient ring.

A report is a list of premises assembled by `report`.  Each premise kind
has one builder, a premise function that judges the modules or
representations it is given: `stable_endomorphisms_premise`,
`self_ext1_premise`, `self_ext2_premise`, `lift_premises` (the flat lift
and its first-order class), `ext_routes_premise`,
`endomorphisms_over_g_premise`, `quotient_rigidity_premise`,
`endomorphism_decomposition_premise`, `first_cohomology_premise`,
`mixed_ring_premise`, `tangent_direction_premise` and
`obstruction_premise`.  Every premise carries the statement it certifies
(its anchor); the final conclusion is never computed, only recorded as
following from the verified premises.  The group report's one `try`
surrounds the Hensel chain and the mixed-ring construction and catches
only HenselObstruction and groups.NotAHomomorphism, the mathematical
failures; any other error is a broken invariant and propagates.
"""

from dataclasses import dataclass, field

import numpy as np

from . import coeff, fdmod, flinalg, groups, quiver
from .fdmod import FdModule, RelationViolated

# ---------------------------------------------------------------------------
# anchors and conclusion claims
#
# The text renderer prints these verbatim, so they are frozen here rather
# than assembled on the fly.

ANCHOR_STABLE_END = "stable End_Λ(T) ≅ k"
ANCHOR_EXT1 = "Ext^1_Λ(T,T) ≅ k"
ANCHOR_EXT2 = "Ext^2_Λ(T,T) ≅ k"
ANCHOR_LIFT = (
    "L/tL ≅ T and every defining relation vanishes identically in t"
)
ANCHOR_FIRST_ORDER = (
    "the class of L/t^2L in Ext^1_Λ(T,T) is non-zero"
)
CLAIM_FAMILY = "R(Λ,T) ≅ k[[t]]"
ANCHOR_EXT_ROUTES = (
    "the resolution and extension-structure routes compute "
    "the same Ext^1 dimension"
)

ANCHOR_END_G = "End_{F_p G}(V) ≅ F_p"
ANCHOR_EXT_VANISH = (
    "Ext^1_{F_p Ḡ}(V,V) = Ext^2_{F_p Ḡ}(V,V) = 0"
)
ANCHOR_DECOMP = (
    "End_{F_p}(V) ≅ T_0 ⊕ P_1 ⊕ ... ⊕ P_{p-2} "
    "as F_p Ḡ-modules"
)
ANCHOR_H1 = "H^1(G, End_{F_p}(V)) ≅ F_p"
ANCHOR_RHO = (
    "ρ(g)ρ(h) = ρ(gh) for every pair (g, h), "
    "with ρ(τ) = I + tE"
)
ANCHOR_OBSTRUCTION = "(I + tE + ptA)^p = I + ptE for every A"
ANCHOR_TANGENT = (
    "ρ mod (t^2, p) is a non-trivial first-order deformation of V"
)
CLAIM_GROUP = "R(G,V) ≅ Z_p[[t]]/(pt)"

CONCLUSION_BASIS = (
    "follows from the verified premises by the underlying structure "
    "theory; not itself machine-checked"
)

FAMILY_CASES = (("I", 2), ("I", 3), ("II", 2), ("II", 3), ("III", 3))
GROUP_PRIMES = (3, 5, 7)


# ---------------------------------------------------------------------------
# completed systems and the distinguished small modules

_SYSTEMS = {}


def completed_system(family, d):
    """Completion of a builtin presentation, cached per (family, d)."""
    key = (family, int(d))
    if key not in _SYSTEMS:
        _SYSTEMS[key] = quiver.complete(quiver.builtin_family(family, d))
    return _SYSTEMS[key]


def _unit(n, i, j):
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = 1
    return m


# base-module data: (the vertex of each basis vector, as a fixture's
# vertices: line states it, {arrow: the (i, j) of its one unit entry})
_BASE_DATA = {
    "I": ((1, 0, 1, 2, 0),
          {"beta": (1, 0), "gamma": (2, 1), "delta": (3, 1), "eta": (4, 3)}),
    "II": ((0, 1, 2, 0),
           {"beta": (1, 0), "kappa": (2, 0), "lambda": (3, 2)}),
    "III": ((2, 0, 2, 1, 0),
            {"beta": (4, 3), "gamma": (3, 1), "delta": (2, 1), "eta": (1, 0)}),
}

# the one-entry t-linear deformation direction of each built-in lift
_LIFT_DIRECTION = {
    "I": ("gamma", 2, 4),
    "II": ("gamma", 3, 1),
    "III": ("delta", 2, 4),
}


def base_module(family, system) -> FdModule:
    """The distinguished small quotient module T of a builtin family.

    Family I: dim 5, basis (e1, b, gb, db, hdb), a quotient of P_1.
    Family II: dim 4, basis (e0, b, k, lk), a quotient of P_0.
    Family III: dim 5, basis (e2, h, dh, gh, bgh), a quotient of P_2.
    """
    if family not in _BASE_DATA:
        raise ValueError(f"unknown family {family!r}")
    vertices, entries = _BASE_DATA[family]
    alg = fdmod.quiver_algebra(system)
    n = len(vertices)
    return FdModule(alg, [alg.grading_labels.index(v) for v in vertices],
                    {name: _unit(n, i, j) for name, (i, j) in entries.items()})


# ---------------------------------------------------------------------------
# lift candidates over k[t]


class LiftCandidate:
    """A t-polynomial family of action matrices with residue T.

    ``t_parts`` maps a generator name to an array whose slice [:, :, k] is
    the coefficient of t^(k+1); the degree-0 coefficient is always the
    action matrix of the base module, so the residue condition holds by
    construction and verification does not re-check it.
    """

    def __init__(self, base: FdModule, t_parts: dict):
        self.base = base
        p = base.p
        parts = {}
        for name, arr in t_parts.items():
            if name not in base.algebra.generators:
                raise ValueError(f"unknown generator {name!r}")
            a = np.asarray(arr, dtype=np.int64)
            if a.ndim == 2:
                a = a[:, :, None]
            if a.ndim != 3 or a.shape[:2] != (base.dim, base.dim):
                raise ValueError(f"t-part for {name} has shape {a.shape}")
            a = a % p
            while a.shape[2] and not a[:, :, -1].any():
                a = a[:, :, :-1]
            if a.shape[2]:
                parts[name] = a
        self.t_parts = parts

    @property
    def p(self):
        return self.base.p

    def degree(self, name) -> int:
        if name in self.t_parts:
            return self.t_parts[name].shape[2]
        return 0

    def max_degree(self) -> int:
        return max([self.degree(n) for n in self.t_parts] + [0])

    def action_poly(self, name) -> np.ndarray:
        """(dim, dim, deg+1) coefficient stack, slice 0 the residue."""
        d = self.base.dim
        deg = self.degree(name)
        out = np.zeros((d, d, deg + 1), dtype=np.int64)
        out[:, :, 0] = self.base.mats[name]
        if deg:
            out[:, :, 1:] = self.t_parts[name]
        return out

    def __repr__(self):
        return (
            f"LiftCandidate(dim={self.base.dim}, "
            f"t_parts={sorted(self.t_parts)})"
        )


def builtin_lift(family, system) -> LiftCandidate:
    """The one-parameter lift of T shipped with each family.

    T is `base_module` (family, system) on the completed system it is
    given.  The t-linear part adds a single matrix unit to one arrow
    action; the relation checks below certify that this single entry
    already gives a flat family over k[t].
    """
    base = base_module(family, system)
    name, i, j = _LIFT_DIRECTION[family]
    return LiftCandidate(base, {name: _unit(base.dim, i, j)})


@dataclass(frozen=True)
class LiftVerification:
    relations_checked: int
    max_degree: int
    truncation_levels: tuple


def _poly_mul(a, b, p):
    # exact product of (d, d, *) coefficient stacks; degree adds
    d = a.shape[0]
    out = np.zeros((d, d, a.shape[2] + b.shape[2] - 1), dtype=np.int64)
    for i in range(a.shape[2]):
        for j in range(b.shape[2]):
            out[:, :, i + j] = (out[:, :, i + j] + a[:, :, i] @ b[:, :, j]) % p
    return out


def _poly_word(polys, word, dim, p):
    acc = np.zeros((dim, dim, 1), dtype=np.int64)
    acc[:, :, 0] = np.eye(dim, dtype=np.int64)
    for name in word:
        acc = _poly_mul(acc, polys[name], p)
    return acc


def _graded_polys(L: LiftCandidate):
    """The action polynomials of L, each degree checked against its arrow
    block."""
    polys = {name: L.action_poly(name) for name in L.base.algebra.generators}
    bad = fdmod.grading_violation(L.base, polys)
    if bad is not None:
        name, (i, j, k, v) = bad
        raise RelationViolated(f"grading:{name}", (i, j, k), v)
    return polys


def _truncated(polys, N):
    """The action polynomials mod t^N: cut or zero-padded to N levels."""
    return {name: np.pad(poly[..., :N],
                         [(0, 0), (0, 0), (0, max(0, N - poly.shape[2]))])
            for name, poly in polys.items()}


def _raise_on_violation(rel_id, value):
    hit = fdmod.first_violation(value)
    if hit is not None:
        i, j, k, v = hit
        raise RelationViolated(rel_id, (i, j, k), v)


def verify_quiver_lift(L: LiftCandidate) -> LiftVerification:
    """Certify a lift: exact polynomial identities plus truncated replay.

    Route one evaluates every defining relation as an exact polynomial in
    t with its own arithmetic (`_poly_mul`, `_poly_word`) and demands the
    zero polynomial; route two replays the same relations over the
    truncated rings TruncPoly(p, N) for N in {2, 3, 4} through
    `fdmod.relation_values`.  Either route failing raises RelationViolated
    with the offending relation, entry, and t-degree, the lowest degree
    first.  The relations are those of the base module's algebra.
    """
    alg = L.base.algebra
    p = L.base.p
    d = L.base.dim
    polys = _graded_polys(L)
    rels = alg.relation_items()
    for rid, combo in rels:
        terms = [(c, _poly_word(polys, word, d, p)) for c, word in combo]
        acc = np.zeros((d, d, max(t.shape[2] for _, t in terms)), np.int64)
        for c, term in terms:
            acc[:, :, : term.shape[2]] += c * term
        _raise_on_violation(rid, acc % p)
    levels = (2, 3, 4)
    for N in levels:
        moduli = coeff.trunc_poly(p, N).moduli
        for rid, value in fdmod.relation_values(alg, _truncated(polys, N),
                                                moduli, d):
            _raise_on_violation(f"trunc[{N}] {rid}", value)
    return LiftVerification(
        relations_checked=len(rels),
        max_degree=L.max_degree(),
        truncation_levels=levels,
    )


def first_order_class(L: LiftCandidate) -> fdmod.ExtClass:
    """The self-extension class of L mod t^2.

    The t-linear coefficients of the action polynomials form the cocycle
    of the extension 0 -> T -> L/t^2 L -> T -> 0 in the same coordinates
    the extension-structure Ext oracle uses, so triviality of the class
    is decided against that oracle's coboundary space.  The map from
    t-part to class is linear by construction.
    """
    T = L.base
    # cocycle condition: every relation vanishes on X_a + t theta_a mod t^2
    stacks = _truncated(_graded_polys(L), 2)
    for rid, value in fdmod.relation_values(T.algebra, stacks, (T.p, T.p),
                                            T.dim):
        _raise_on_violation(rid, value)
    ref = fdmod.ext1_by_extensions(T, T)
    if ref.representative is None:
        return fdmod.ExtClass(1, T, T, ref.dim, None)
    slots, cob = fdmod.extension_coboundaries(T, T)
    vec = np.stack([stacks[name][..., 1]
                    for name in T.algebra.generators])[slots]
    return fdmod.ExtClass(1, T, T, ref.dim, (vec, cob))


# ---------------------------------------------------------------------------
# Hensel steps up the p-adic chain


class HenselObstruction(RuntimeError):
    """The linear correction system at one level has no solution."""

    def __init__(self, p, level, detail=""):
        self.p = p
        self.level = level
        super().__init__(
            f"no correction lifts the representation from Z/{p}^{level} "
            f"to Z/{p}^{level + 1}" + (f": {detail}" if detail else "")
        )


def _witt_level(ring: coeff.RingDescriptor) -> int:
    if ring.kind == "prime_field":
        return 1
    if ring.kind != "trunc_witt":
        raise ValueError("hensel steps expect a p-adic truncation ring")
    return ring.n


def hensel_lift_step(rho_m: groups.GroupRep) -> groups.GroupRep:
    """One level of the chain: correct sigma so the relations still hold.

    The next level keeps the Teichmueller epsilon and takes
    sigma_next = (I + p^m X) sigma_m.  Over Z/p^(m+1) the relations at
    (sigma_m, epsilon) must vanish mod p^m; their value divided by p^m is
    the defect.  Since p^(2m) = 0 there, a relation at sigma_next is its
    value at sigma_m plus p^m times its derivative at
    theta_sigma = X sigma_bar, the rows of `fdmod.relation_derivative`
    over F_p on the sigma slots of rho_bar, which is rho_m mod p and so
    table-verified, so X solves derivative(X sigma_bar) = -defect mod p.

    Fixing epsilon loses no solutions: the restriction of any solution's
    correction to the subgroup generated by epsilon is a cocycle of a
    group of order prime to p with p-torsion coefficients, hence a
    coboundary, and conjugating by that coboundary re-normalizes.  The
    relations hold in the table, and the lift is re-verified on the whole
    multiplication table regardless.
    """
    table = rho_m.table
    if not table.quotient:
        raise ValueError("hensel steps run over the quotient-group table")
    p = table.p
    m = _witt_level(rho_m.ring)
    pm, pm1 = p**m, p ** (m + 1)
    d = rho_m.dim

    eps_m = rho_m.generator_matrix("epsilon")[:, :, 0]
    eps_next = np.diag([coeff.teichmuller(p, m + 1, int(r) % p)
                        for r in np.diagonal(eps_m)])
    if np.any(eps_next % pm != eps_m % pm):  # off-diagonal entries too
        raise ValueError("epsilon is not in the diagonal Teichmueller form")
    sigma_m = rho_m.generator_matrix("sigma")[:, :, 0]

    alg = groups.group_algebra(table)
    values = fdmod.relation_values(
        alg, {"sigma": sigma_m[..., None], "epsilon": eps_next[..., None]},
        (pm1,), d)
    defect = np.concatenate([value.ravel() for _, value in values])
    if np.any(defect % pm):
        raise HenselObstruction(p, m, "defect not divisible by p^m")
    bar = fdmod.FdModule(alg, np.zeros(d, dtype=np.int64),
                         {"sigma": sigma_m, "epsilon": eps_next}, check=False)
    slots = np.zeros((len(alg.generators), d, d), dtype=bool)
    slots[alg.generators.index("sigma")] = True
    # theta_sigma = X sigma_bar is kron(I, sigma_bar^T) vec(X), row-major
    rows = flinalg.matmul_mod(
        fdmod.relation_derivative(bar, bar, slots),
        np.kron(np.eye(d, dtype=np.int64), bar.mats["sigma"].T), p)
    sol = flinalg.solve(rows, -(defect // pm) % p, p)
    if sol is None:
        raise HenselObstruction(p, m)
    correction = (np.eye(d, dtype=np.int64) + pm * sol.reshape(d, d)) % pm1
    sigma_next = flinalg.matmul_mod(correction, sigma_m, pm1)
    out = groups.GroupRep.from_generators(
        table, coeff.trunc_witt(p, m + 1),
        {"sigma": sigma_next, "epsilon": eps_next},
    )
    back = out.convert(rho_m.ring)
    if np.any(back.mats != rho_m.mats):
        raise HenselObstruction(p, m, "lift does not reduce to its input")
    return out


def hensel_chain(rho, n) -> list:
    """rho over Z/p and its Hensel lifts up to Z/p^n, each table-verified.

    rho is the verified residue representation on the quotient table
    (ValueError unless over Z/p); each level is `hensel_lift_step` of the
    one below.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if _witt_level(rho.ring) != 1:
        raise ValueError("a Hensel chain starts over Z/p")
    chain = [rho]
    while len(chain) < n:
        chain.append(hensel_lift_step(chain[-1]))
    return chain


# ---------------------------------------------------------------------------
# the mixed-ring representation and the obstruction identity


def mixed_representation(chain, full_table, N) -> groups.GroupRep:
    """The full-group representation over the mixed deformation ring.

    chain is a `hensel_chain` on the quotient table; its top gives the
    level n = `_witt_level` of its ring, and full_table gives p.  sigma
    and epsilon act through the quotient by that level-n lift; tau acts
    by I + tE with E the top-right matrix unit.  The constructor verifies
    multiplicativity on the entire multiplication table of the full
    group, which is the certificate the reports cite.
    """
    if N < 2:
        raise ValueError("need N >= 2 so that tau can move")
    top = chain[-1]
    p, n = full_table.p, _witt_level(top.ring)
    if (top.table.p, top.table.a_eps) != (p, full_table.a_eps):
        raise ValueError("chain and full table disagree on (p, a_eps)")
    ring = coeff.mixed_deform(p, n, N)
    d = p - 1
    sigma = np.zeros((d, d, N), dtype=np.int64)
    sigma[:, :, 0] = top.generator_matrix("sigma")[:, :, 0]
    eps = np.zeros((d, d, N), dtype=np.int64)
    # every chain step keeps epsilon Teichmueller, and at n = 1 the
    # uniserial epsilon is its own lift
    eps[:, :, 0] = top.generator_matrix("epsilon")[:, :, 0]
    tau = np.zeros((d, d, N), dtype=np.int64)
    tau[:, :, 0] = np.eye(d, dtype=np.int64)
    tau[:, :, 1] = _unit(d, 0, d - 1)
    return groups.GroupRep.from_generators(
        full_table, ring,
        {"sigma": sigma, "tau": tau, "epsilon": eps},
    )


def mixed_identity_checks(rep: groups.GroupRep) -> dict:
    """The two named identities of the mixed-ring representation."""
    table, moduli = rep.table, rep.ring.moduli
    if table.tau is None:
        raise ValueError("the mixed-ring identities need the full table")
    p = table.p
    tau, eps = rep.mats[table.tau], rep.mats[table.eps]
    ainv = pow(table.a_eps, -1, p)
    tau_ainv = rep.mats[table.power(table.tau, ainv)]
    # eps tau eps^-1 = tau^(1/a) is eps tau = tau^(1/a) eps once eps is a
    # unit, which it is exactly when its residue has full rank
    conjugates = flinalg.rank(eps[..., 0] % p, p) == rep.dim and (
        np.array_equal(coeff.level_matmul(moduli, eps, tau),
                       coeff.level_matmul(moduli, tau_ainv, eps)))
    return {
        "tau_power_p_is_identity": np.array_equal(
            coeff.level_power(moduli, tau, p),
            coeff.level_power(moduli, tau, 0)),
        "eps_conjugation_exponent": int(ainv),
        "eps_conjugates_tau_to_power": bool(conjugates),
    }


def tangent_class_is_nonzero(rep: groups.GroupRep) -> bool:
    """Non-triviality of the mod (t^2, p) reduction as a deformation.

    The reduction is rho_bar + t lin, so lin is the top-right block of the
    self-extension [[rho_bar, lin], [0, rho_bar]] of V = rho_bar.  The
    deformation is trivial, (1 - tF) rho_bar (1 + tF), exactly when
    lin(s) = rho_bar(s) F - F rho_bar(s) at the generators s: a span test
    against the coboundary columns of `fdmod.extension_coboundaries`
    (V, V).  That is the conjugation cocycle lin(s) rho_bar(s)^-1 being
    a coboundary, multiplied on the right by the unit rho_bar(s).
    """
    p = rep.table.p
    lin = rep.convert(coeff.mixed_deform(p, 1, 2)).mats[:, :, :, 1] % p
    if not lin.any():
        return False
    V = groups.rep_to_module(rep.convert(coeff.prime_field(p)))
    _, cob = fdmod.extension_coboundaries(V, V)
    index = rep.table.generator_indices()
    target = np.concatenate(
        [lin[index[name]] for name in V.algebra.generators], axis=None)
    return not flinalg.in_span(cob, target, p)


# The three special matrices that open every sweep, in order.
SPECIAL_LABELS = ("zero", "identity", "all-ones")

# The sweep powers its matrices in chunks of at most SWEEP_CHUNK_ELEMENTS
# matrix entries.  From p = 67 on a chunk holds a single matrix.
SWEEP_CHUNK_ELEMENTS = 2**12


def obstruction_powers(p, A):
    """Exact powers of I + t(E + pA) for a stack A (W, d, d) of residues.

    The identity (I + tE + ptA)^p = I + ptE holding for every A is what
    kills the t^2 tangent direction.  The whole stack is powered at once
    in the three-level obstruction ring.  Returns the (W, d, d, 3) power
    stack and the verdict of each slice.
    """
    d = p - 1
    E = _unit(d, 0, d - 1)
    base = np.zeros((len(A), d, d, 3), dtype=np.int64)
    base[..., 0] = np.eye(d, dtype=np.int64)
    base[..., 1] = E + p * A
    power = coeff.level_power(coeff.obstruction_ring(p).moduli, base, p)
    want = np.stack([np.eye(d, dtype=np.int64), p * E, 0 * E], axis=2)
    return power, (power == want).all(axis=(1, 2, 3))


def obstruction_check(p, A):
    """(passed, power) for one A, a (p - 1) x (p - 1) matrix."""
    d = p - 1
    A = np.asarray(A, dtype=np.int64) % p
    if A.shape != (d, d):
        raise ValueError(f"A must be {d} x {d} mod {p}")
    power, passed = obstruction_powers(p, A[None])
    return bool(passed[0]), power[0]


def obstruction_sweep(p, samples=100, seed=0):
    """The special matrices, then seeded-random draws, chunk by chunk.

    Returns (count, failures): the number of matrices powered and the
    labels of those that failed, in order.  One `rng.integers` call per
    chunk yields the same stream as one (d, d) call per draw, since d * d
    is even; no draw or power outlives its chunk.
    """
    d = p - 1
    step = max(1, SWEEP_CHUNK_ELEMENTS // (d * d))
    rng = np.random.default_rng(seed)

    def chunks():
        special = np.stack([np.zeros((d, d)), np.eye(d), np.ones((d, d))])
        for start in range(0, 3, step):
            yield special[start:start + step].astype(np.int64)
        for start in range(0, samples, step):
            yield rng.integers(0, p, size=(min(step, samples - start), d, d))

    def label(i):
        return SPECIAL_LABELS[i] if i < 3 else f"random[{i - 3}]"

    count, failures = 0, []
    for A in chunks():
        _, passed = obstruction_powers(p, A)
        failures += [label(count + k) for k in np.flatnonzero(~passed)]
        count += len(A)
    return count, failures


# ---------------------------------------------------------------------------
# scenarios and reports


# Group and obstruction scenarios are refused past WORK_CEILING estimated
# multiply-adds (about 15 s of products on a 2-vCPU host); int64-route
# products cost INT64_WORK_FACTOR float32- or float64-route ones.  Every
# sweep witness has a Toeplitz operand of its own, so each of its products
# also charges SWEEP_ENTRY_WORK per operand entry for building it and
# reducing the result.  On that host the sweep took about 1, 6, 13, 50-80,
# 490-760 and 3200-4300 us a witness at p = 3, 5, 7, 13, 31 and 61 as its
# speed drifted; the entries dominate below p = 31, the multiply-adds
# above.
WORK_CEILING = 10**11
INT64_WORK_FACTOR = 16
SWEEP_ENTRY_WORK = 2**6


@dataclass(frozen=True)
class Scenario:
    kind: str
    family: str = ""
    d: int = 0
    p: int = 0
    a_eps: int = 0
    n: int = 2
    N: int = 3
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.kind == "family":
            if (self.family, self.d) not in FAMILY_CASES:
                raise ValueError(
                    f"no built-in case family {self.family} d={self.d}"
                )
        elif self.kind in ("group", "obstruction"):
            if self.samples < 0:
                raise ValueError("samples must be >= 0")
            if self.kind == "group" and not (
                    self.n >= 1 and 2 <= self.N <= 64):
                raise ValueError("need n >= 1 and 2 <= N <= 64")
            # the estimate asks the exactness rule, before trial division
            work = self.work_estimate() if self.p >= 3 else 0
            if self.p < 3 or not coeff.is_prime(self.p):
                raise ValueError("p must be an odd prime")
            if work > WORK_CEILING:
                raise ValueError(f"estimated work {work:.1e} multiply-adds "
                                 f"exceeds the budget of {WORK_CEILING:.0e}")
        else:
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    def work_estimate(self) -> int:
        """Products x rows x inner dimension x columns x L^2 level blocks.

        About 2 log2 p products per sweep witness over the obstruction
        ring, each also charged SWEEP_ENTRY_WORK per entry of its (3 d)^2
        Toeplitz operand; a group scenario adds |G|^2 over End(V) twice
        and over the mixed ring once.  The End(V) terms priced the table
        check of the conjugation representation and the H^1 check of every
        basis cocycle.  Neither is built any more: H^1 is Ext^1(V, V) on
        2d-dimensional extensions (`groups.h1_cocycles`), so they are a
        deliberate over-charge: without them p = 11 would be admitted, and
        it takes about 2-3 s and 90 MB on a 2-vCPU host.  They stay until
        the budget is re-derived from counted work.
        Raises OverflowError where int64 cannot hold a product, as n >= 64
        does for any p >= 3.
        """
        def cost(count, k, moduli):
            slow = flinalg.exact_product(k, moduli) == np.int64
            blocks = len(moduli) ** 2
            return count * k**3 * blocks * (INT64_WORK_FACTOR if slow else 1)

        p, d = self.p, self.p - 1
        products = (self.samples + 3) * 2 * p.bit_length()
        work = products * (3 * d) ** 2 * SWEEP_ENTRY_WORK + cost(
            products, d, coeff.ring_moduli("obstruction", p))
        if self.kind == "group":
            G2 = (p * p * d) ** 2
            work += cost(2 * G2, d * d, (p,)) + cost(G2, d, coeff.ring_moduli(
                "mixed_deform", p, min(self.n, 64), self.N))
        return work

    @property
    def id(self):
        if self.kind == "family":
            return f"family-{self.family}-d{self.d}"
        return f"{self.kind}-p{self.p}"


@dataclass(frozen=True)
class Premise:
    name: str
    anchor: str
    verdict: str
    computed: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.anchor:
            raise ValueError("premise without an anchor")
        if self.verdict not in ("PASS", "FAIL"):
            raise ValueError(f"bad verdict {self.verdict!r}")


@dataclass(frozen=True)
class VerificationReport:
    scenario_id: str
    premises: tuple
    conclusion: str
    status: str

    def to_json_dict(self):
        return {
            "schema": 1,
            "scenario": self.scenario_id,
            "status": self.status,
            "premises": [
                {
                    "name": pr.name,
                    "anchor": pr.anchor,
                    "verdict": pr.verdict,
                    "computed": _jsonable(pr.computed),
                }
                for pr in self.premises
            ],
            "conclusion": self.conclusion,
            "conclusion_basis": CONCLUSION_BASIS if self.conclusion else "",
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, str)) or x is None:
        return x
    raise TypeError(f"not JSON-safe: {type(x)!r}")


def report(scenario_id, premises, claim) -> VerificationReport:
    """Assemble premises into a report; the claim stands only if all pass.

    Any failure downgrades the report to DISCREPANCY and the conclusion is
    withheld, never weakened.
    """
    ok = all(pr.verdict == "PASS" for pr in premises)
    return VerificationReport(
        scenario_id,
        tuple(premises),
        claim if ok else "",
        "VERIFIED" if ok else "DISCREPANCY",
    )


def _premise(name, anchor, passed, computed) -> Premise:
    # the one verdict rule: PASS exactly when the check held
    return Premise(name, anchor, "PASS" if passed else "FAIL", computed)


# ---------------------------------------------------------------------------
# premise functions: each judges the modules or representations it is given


def stable_endomorphisms_premise(T) -> Premise:
    """Stable End(T) is one-dimensional."""
    homs = fdmod.hom_space(T, T)
    stable = fdmod.stable_rank(T, T, homs)
    return _premise("stable-endomorphisms", ANCHOR_STABLE_END, stable == 1, {
        "stable_end_dim": stable, "end_dim": len(homs), "dim_T": T.dim,
        "cover_summands": [
            str(l) for l in fdmod.projective_cover(T).summand_labels]})


def self_ext1_premise(T) -> Premise:
    """Ext^1(T, T) is one-dimensional by both routes."""
    e1, e1b = fdmod.ext_dim(T, T, 1).dim, fdmod.ext1_by_extensions(T, T).dim
    return _premise("self-extensions-degree-1", ANCHOR_EXT1, e1 == e1b == 1,
                    {"resolution_route": e1, "extension_route": e1b})


def self_ext2_premise(T) -> Premise:
    """Ext^2(T, T) is one-dimensional."""
    e2 = fdmod.ext_dim(T, T, 2).dim
    return _premise("self-extensions-degree-2", ANCHOR_EXT2, e2 == 1,
                    {"resolution_route": e2})


def lift_premises(lift: LiftCandidate) -> list:
    """The flat-lift and first-order-class premises of one lift.

    The class must be non-zero in a one-dimensional Ext^1; a lift that
    breaks a relation fails both premises.
    """
    try:
        cert = verify_quiver_lift(lift)
        cls = first_order_class(lift)
    except RelationViolated as err:
        flat = False, {"relation": str(err.relation_id),
                       "position": list(err.position)}
        first = False, {"reason": "lift invalid"}
    else:
        flat = True, {"relations_checked": cert.relations_checked,
                      "max_t_degree": cert.max_degree,
                      "truncation_levels": list(cert.truncation_levels)}
        zero = cls.representative_is_trivial()
        first = not zero and cls.dim == 1, {"ext1_dim": cls.dim,
                                            "class_is_zero": zero}
    return [_premise("flat-lift", ANCHOR_LIFT, *flat),
            _premise("first-order-class", ANCHOR_FIRST_ORDER, *first)]


def ext_routes_premise(M, N, source="T", target="T") -> Premise:
    """The resolution and extension routes agree on dim Ext^1(M, N)."""
    x1, x1b = fdmod.ext_dim(M, N, 1).dim, fdmod.ext1_by_extensions(M, N).dim
    return _premise("ext-routes-agree", ANCHOR_EXT_ROUTES, x1 == x1b, {
        "source": source, "target": target,
        "ext1_resolution": x1, "ext1_extension_route": x1b,
        "ext2": fdmod.ext_dim(M, N, 2).dim,
        "stable_hom": fdmod.stable_hom_dim(M, N),
    })


def endomorphisms_over_g_premise(VG) -> Premise:
    """End(V) over the full group is the scalars."""
    end_dim = len(fdmod.hom_space(VG, VG))
    return _premise("endomorphisms-over-G", ANCHOR_END_G, end_dim == 1,
                    {"end_dim_over_G": end_dim, "dim_V": VG.dim})


def quotient_rigidity_premise(V) -> Premise:
    """Ext^1 (by both routes) and Ext^2 of V with itself vanish."""
    x1, x1b = fdmod.ext_dim(V, V, 1).dim, fdmod.ext1_by_extensions(V, V).dim
    x2 = fdmod.ext_dim(V, V, 2).dim
    return _premise("quotient-rigidity", ANCHOR_EXT_VANISH,
                    x1 == x1b == x2 == 0, {"ext1_resolution": x1,
                                           "ext1_extension_route": x1b,
                                           "ext2": x2})


def endomorphism_decomposition_premise(EndV, simples, projectives) -> Premise:
    """End(V) is the sum of the simples T_j, j in simples, and the
    projectives P_i, i in projectives, and has every simple once in its
    socle; the report claims T_0 + P_1 + ... + P_(p-2).

    `fdmod.sum_isomorphism` builds the isomorphism and verifies it.  A
    built map that fails its verification is not a mathematical fact, so
    it raises RuntimeError rather than filing a FAIL.
    """
    found = fdmod.sum_isomorphism(EndV, simples, projectives)
    if not found.definitive:
        raise RuntimeError("the isomorphism built from the claimed summands "
                           "failed its verification, which is not "
                           "definitive")
    iso = bool(found.isomorphic)
    socle = fdmod.socle_multiplicities(EndV)
    simple_once = socle == {i: 1 for i in range(EndV.p - 1)}
    return _premise("endomorphism-decomposition", ANCHOR_DECOMP,
                    iso and simple_once, {
                        "is_isomorphic": iso,
                        "socle_multiplicities": {
                            str(k): int(v) for k, v in sorted(socle.items())},
                        "end_dim_over_quotient": EndV.dim})


def first_cohomology_premise(rho) -> Premise:
    """H^1(G, End V) = Ext^1(V, V) is one-dimensional for V = rho on its
    table; rho is verified on its whole table, as `groups.h1_cocycles`
    needs."""
    h1 = groups.h1_cocycles(rho)
    return _premise("first-cohomology", ANCHOR_H1, h1.dim == 1, {
        "h1_dim": h1.dim, "cocycle_dim": h1.cocycle_dim,
        "coboundary_dim": h1.coboundary_dim})


def mixed_ring_premise(rep) -> Premise:
    """The mixed-ring representation and its two named identities.

    rep is the representation, verified on its whole table when it was
    built, or the HenselObstruction or NotAHomomorphism that stopped its
    construction; the latter fails with the error's message.
    """
    if isinstance(rep, groups.GroupRep):
        ids = mixed_identity_checks(rep)
        passed = ids["tau_power_p_is_identity"] and (
            ids["eps_conjugates_tau_to_power"])
        n = rep.table.size
        computed = {"group_order": n, "pairs_checked": n * n, **ids}
    else:
        passed, computed = False, {"error": str(rep)}
    return _premise("mixed-ring-representation", ANCHOR_RHO, passed, computed)


def tangent_direction_premise(rep) -> Premise:
    """rep mod (t^2, p) is a non-trivial first-order deformation; rep is
    as for mixed_ring_premise, and an error fails here too."""
    moved = isinstance(rep, groups.GroupRep) and tangent_class_is_nonzero(rep)
    return _premise("tangent-direction", ANCHOR_TANGENT, moved,
                    {"first_order_nontrivial": bool(moved)})


def obstruction_premise(p, samples, seed) -> Premise:
    """The obstruction identity over the special matrices and the draws."""
    count, failures = obstruction_sweep(p, samples, seed)
    return _premise("obstruction-identity", ANCHOR_OBSTRUCTION, not failures, {
        "witnesses": count, "random_samples": samples, "seed": seed,
        "failures": failures})


# ---------------------------------------------------------------------------
# scenario reports: each input built once, then the premise list


def _family_report(sc: Scenario) -> VerificationReport:
    system = completed_system(sc.family, sc.d)
    T = base_module(sc.family, system)
    return report(sc.id, [
        stable_endomorphisms_premise(T),
        self_ext1_premise(T),
        self_ext2_premise(T),
        *lift_premises(builtin_lift(sc.family, system)),
    ], CLAIM_FAMILY)


def _group_report(sc: Scenario) -> VerificationReport:
    p = sc.p
    quot = groups.build_group(p, sc.a_eps or None, quotient=True)
    full = groups.build_group(p, quot.a_eps, quotient=False)
    rho_bar = groups.uniserial_representation(quot)
    rho_full = groups.inflate(rho_bar, full)
    EndV = groups.conjugation_module(rho_bar)
    # only a mathematical failure of the chain or of the full-table check
    # becomes a FAIL; any other error is a broken invariant and propagates
    try:
        rep = mixed_representation(hensel_chain(rho_bar, sc.n), full, sc.N)
    except (HenselObstruction, groups.NotAHomomorphism) as err:
        rep = err
    return report(sc.id, [
        endomorphisms_over_g_premise(groups.rep_to_module(rho_full)),
        quotient_rigidity_premise(groups.rep_to_module(rho_bar)),
        endomorphism_decomposition_premise(EndV, (0,), range(1, p - 1)),
        first_cohomology_premise(rho_full),
        mixed_ring_premise(rep),
        obstruction_premise(p, sc.samples, sc.seed),
        tangent_direction_premise(rep),
    ], CLAIM_GROUP)


def scenario_report(scenario: Scenario) -> VerificationReport:
    """Run every check of a scenario and assemble the premise report."""
    if scenario.kind == "family":
        return _family_report(scenario)
    if scenario.kind == "group":
        return _group_report(scenario)
    premise = obstruction_premise(scenario.p, scenario.samples, scenario.seed)
    premise.computed["labels_head"] = list(SPECIAL_LABELS)
    return report(scenario.id, [premise], "")
