"""Exact arithmetic in lattice extensions 1 -> Z^n -> pi -> Q -> 1.

The quotient Q is one of six kinds: the virtually cyclic trivial, C2, Z,
Z x C2 and D-infinity groups, and the Klein bottle group Z x| Z, which is
not virtually cyclic.  Each kind has a built-in unique normal form for its
words, kept in its entry of the _KINDS table.  An element of pi is a pair
(t, q): a lattice translation followed by the canonical lift of the
quotient word.  Multiplication collects letter by letter; the only
relations that carry lattice vectors are squares of involutive generators
(g-hat^2 = lattice vector s_g) and, for the Z x C2 kind, one commutator
cocycle ([s-hat, g-hat] = lattice vector).

This is enough group theory to compute torsion, abelianizations, centers,
orientation characters, and to check homomorphisms exactly; no general word
problem machinery is involved.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import gcd, lcm
from typing import NamedTuple

from .intmat import (
    MAX_DIM,
    IntMatrix,
    IntVector,
    is_zero_vector,
    kernel_basis,
    smith_rows,
    solve_integer,
    vec_add,
    vec_neg,
    vec_sub,
)

# L(n) for n = 0..8: the lcm of the finite orders in GL(n,Z), which is the
# product over primes p of the largest p^k with phi(p^k) <= n (the
# crystallographic restriction)
_ORDER_EXPONENT = (1, 2, 12, 12, 120, 120, 2520, 2520, 5040)
_first = operator.itemgetter(0)  # the generator name of a letter


class QuotientKind(enum.Enum):
    TRIVIAL = "Trivial"
    C2 = "C2"
    ZQ = "Zq"
    ZXC2 = "ZxC2"
    DINF = "Dinf"
    KLEIN = "Klein"


def _run(name, k) -> list[tuple[str, int]]:
    """The letters of name^k, each with exponent +-1."""
    return [(name, 1 if k > 0 else -1)] * abs(k)


def _ints(values, message, n=None) -> tuple[int, ...]:
    """values as a tuple of ints, read by operator.index as the cocycles
    are (bools and NumPy integers pass, floats and strings do not), of
    length n if n is given; else ValueError(message)."""
    try:
        ints = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(message) from None
    if n is not None and len(ints) != n:
        raise ValueError(message)
    return ints


class _Kind:
    """What a quotient kind decides for a group G of that kind: its arity,
    its involutive generators, whether generator 0 carries a commutator
    cocycle, its normal-form words (identity, check, letters, and append,
    which an involutive letter reaches with exponent 1 only), its central
    coset candidates, and its structural check and relator beyond the
    action and square relators.  This base entry is the trivial kind."""

    arity = 0
    involutive = ()  # positions of the involutive generators
    commutator = False
    identity = ()

    def check(self, G, q):
        if q != ():
            raise ValueError("trivial quotient admits only the empty word")
        return ()

    def letters(self, G, q):
        return []

    def central(self, G):
        return []

    def check_structure(self, G):
        pass

    def relator(self, G) -> Word | None:
        return None


class _C2(_Kind):
    """Words 0 and 1, for g^0 and g."""

    arity, involutive, identity = 1, (0,), 0

    def check(self, G, q):
        q, = _ints((q,), "C2 word must be 0 or 1")
        if q not in (0, 1):
            raise ValueError("C2 word must be 0 or 1")
        return q

    def letters(self, G, q):
        return _run(G.generators[0], q)

    def append(self, G, t, q, name, exp):
        if q == 0:
            return t, 1
        return vec_add(t, G.square_cocycle[name]), 0

    def central(self, G):
        g = G.generators[0]
        return [1] if G.action[g].is_identity() else []


class _Zq(_Kind):
    """Words are integers k, for s^k."""

    arity, identity = 1, 0

    def check(self, G, q):
        q, = _ints((q,), "Zq word must be an integer")
        return q

    def letters(self, G, q):
        return _run(G.generators[0], q)

    def append(self, G, t, q, name, exp):
        return t, q + exp

    def central(self, G):
        m = G._finite_action_order(G.generators[0])
        return [] if m is None else [m]


class _ZxC2(_Kind):
    """Words are pairs (k, eps), for s^k g^eps with eps 0 or 1; the
    cocycle under s records the commutator c = [s-hat, g-hat]."""

    arity, involutive, commutator, identity = 2, (1,), True, (0, 0)

    def check(self, G, q):
        k, eps = _ints(q, "ZxC2 word must be (k, 0 or 1)", 2)
        if eps not in (0, 1):
            raise ValueError("ZxC2 word must be (k, 0 or 1)")
        return (k, eps)

    def letters(self, G, q):
        s, g = G.generators
        return _run(s, q[0]) + _run(g, q[1])

    def append(self, G, t, q, name, exp):
        k, eps = q
        if name == G.generators[1]:
            if eps == 0:
                return t, (k, 1)
            s_g = G.square_cocycle[name]
            return vec_add(t, G._apply_q((k, 0), s_g)), (k, 0)
        if eps == 0:
            return t, (k + exp, 0)
        if exp == 1:
            # g-hat s-hat = tau(-c) s-hat g-hat
            c = vec_neg(G.comm_cocycle)
            return vec_add(t, G._apply_q((k, 0), c)), (k + 1, 1)
        return vec_add(t, G._apply_q((k - 1, 0), G.comm_cocycle)), (k - 1, 1)

    def central(self, G):
        s, g = G.generators
        m = G._finite_action_order(s)
        return ([] if m is None else [(m, 0)]) + (
            [(0, 1)] if G.action[g].is_identity() else [])

    def check_structure(self, G):
        s, g = G.generators
        a, m = G.action[s], G.action[g]
        if a * m != m * a:
            raise ValueError("ZxC2 actions do not commute")
        # conjugating g-hat^2 by s-hat forces (A - I) s_g = (I + G) c
        s_g = G.square_cocycle[g]
        if vec_sub(a.apply(s_g), s_g) != vec_add(
                G.comm_cocycle, m.apply(G.comm_cocycle)):
            raise ValueError("ZxC2 cocycles are inconsistent: "
                             "(A - I) s_g != (I + G) c")

    def relator(self, G):
        s, g = G.generators
        return ((s, 1), (g, 1), (s, -1), (g, -1)) + G._inverse_word(
            G._vector_word(G.comm_cocycle))


class _Dinf(_Kind):
    """Words are alternating tuples of the two generator names."""

    arity, involutive = 2, (0, 1)

    def check(self, G, q):
        q = tuple(q)
        u, v = G.generators
        for i, letter in enumerate(q):
            if letter not in (u, v):
                raise ValueError(f"unknown Dinf letter {letter!r}")
            if i and q[i - 1] == letter:
                raise ValueError("Dinf word is not alternating")
        return q

    def letters(self, G, q):
        return [(letter, 1) for letter in q]

    def append(self, G, t, q, name, exp):
        if q and q[-1] == name:
            rest = q[:-1]
            return vec_add(t, G._apply_q(rest, G.square_cocycle[name])), rest
        return t, q + (name,)


class _Klein(_Kind):
    """Words are pairs (alpha, beta), for x^alpha y^beta, with
    x y x^-1 = y^-1."""

    arity, identity = 2, (0, 0)

    def check(self, G, q):
        return _ints(q, "Klein word must be a pair of integers", 2)

    def letters(self, G, q):
        x, y = G.generators
        return _run(x, q[0]) + _run(y, q[1])

    def append(self, G, t, q, name, exp):
        a, b = q
        if name == G.generators[0]:
            return t, (a + exp, -b)
        return t, (a, b + exp)

    def central(self, G):
        m = G._finite_action_order(G.generators[0])
        return [] if m is None else [(lcm(m, 2), 0)]

    def check_structure(self, G):
        mx, my = (G.action[x] for x in G.generators)
        if mx * my * mx.inverse() != my.inverse():
            raise ValueError("Klein actions do not satisfy x y x^-1 = y^-1")

    def relator(self, G):
        x, y = G.generators
        return ((x, 1), (y, 1), (x, -1), (y, 1))


_KINDS = {QuotientKind.TRIVIAL: _Kind(), QuotientKind.C2: _C2(),
          QuotientKind.ZQ: _Zq(), QuotientKind.ZXC2: _ZxC2(),
          QuotientKind.DINF: _Dinf(), QuotientKind.KLEIN: _Klein()}


@dataclass(frozen=True)
class GroupElement:
    """Normal form (t, q): lattice part t, quotient word q, in the word
    format of its kind's _KINDS entry."""

    t: IntVector
    q: object


Word = tuple  # ((name, exponent), ...) pairs over an FpPresentation


def parse_word(text: str) -> Word:
    """Parse "u v^-1 x^3" into ((u,1), (v,-1), (x,3)); "" is the empty word."""
    letters = []
    for token in text.split():
        if "^" in token:
            name, _, exp = token.partition("^")
            letters.append((name, int(exp)))
        else:
            letters.append((token, 1))
    return tuple(letters)


def render_word(word: Word) -> str:
    parts = []
    for name, exp in word:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


@dataclass(frozen=True)
class FpPresentation:
    """A finite presentation: generator names and relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise ValueError("duplicate generator names")
        for rel in self.relators:
            for name, exp in rel:
                if name not in declared:
                    raise ValueError(f"relator uses undeclared generator "
                                     f"{name!r}")
                if exp == 0:
                    raise ValueError("zero exponent in relator")


class _H1Data(NamedTuple):
    gens: tuple[str, ...]
    d: list[int]
    p: list[list[int]]


def _gf2_solve(eqs: list[int], n: int) -> int | None:
    """A solution of a linear system over GF(2), or None if it has none.
    Each equation is an int: bits 0..n-1 hold its coefficients, bit n its
    right-hand side; so is the solution, with bit j for unknown j and every
    free unknown 0.  Each kept row owns its lowest bit as pivot, which no
    other kept row holds; an equation reduced to bit n alone reads 0 = 1."""
    kept = []
    for e in eqs:
        for r in kept:
            if e & r & -r:
                e ^= r
        if e == 1 << n:
            return None
        if e:
            kept = [r ^ e if r & e & -e else r for r in kept] + [e]
    return sum((r >> n & 1) << (r & -r).bit_length() - 1 for r in kept)


class ExtensionGroup:
    """A lattice extension with chosen quotient kind, actions and cocycles.

    cocycles maps an involutive quotient generator g to the vector s_g with
    g-hat^2 = s_g.  For the ZxC2 kind the entry under the infinite-order
    generator s instead records the commutator [s-hat, g-hat].
    axis_signs (optional) tags each quotient generator with its action on the
    direction complementary to the lattice; orientation characters need it.
    """

    def __init__(self, kind, rank, lattice_names=None, generators=None,
                 action=None, cocycles=None, axis_signs=None, name=None):
        self.kind = QuotientKind(kind)
        self._k = _KINDS[self.kind]
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise ValueError(f"rank must be an integer, not {rank!r}")
        if rank < 0:
            raise ValueError("negative rank")
        if rank > MAX_DIM:
            raise ValueError(f"dimension {rank} outside supported range "
                             f"0..{MAX_DIM}")
        self.rank = rank
        if lattice_names is None:
            lattice_names = tuple(f"e{i + 1}" for i in range(rank))
        self.lattice_names = tuple(lattice_names)
        if len(self.lattice_names) != rank:
            raise ValueError("lattice_names length must equal rank")

        arity = self._k.arity
        if generators is None:
            if arity:
                raise ValueError(f"kind {self.kind.value} needs {arity} "
                                 f"generator name(s)")
            generators = ()
        self.generators = tuple(generators)
        if len(self.generators) != arity:
            raise ValueError(f"kind {self.kind.value} takes exactly {arity} "
                             f"generator name(s)")
        all_names = self.lattice_names + self.generators
        if len(set(all_names)) != len(all_names):
            raise ValueError("generator names clash")

        action = dict(action or {})
        if set(action) != set(self.generators):
            raise ValueError("action must cover exactly the quotient "
                             "generators")
        self.action = {}
        for g, m in action.items():
            # descriptions hold null for the 0x0 matrix, and only for it
            if m is None:
                if rank:
                    raise ValueError(f"action of {g!r} is null, but the "
                                     f"rank is {rank}")
                m = IntMatrix.identity(0)
            elif rank == 0:
                raise ValueError("rank-0 group takes no action matrices")
            if not isinstance(m, IntMatrix):
                m = IntMatrix(m)
            if m.n != rank:
                raise ValueError(f"action of {g!r} has wrong size")
            if not m.is_unimodular():
                raise ValueError(f"action of {g!r} is not in GL({rank},Z)")
            self.action[g] = m

        cocycles = dict(cocycles or {})
        involutive = [self.generators[i] for i in self._k.involutive]
        allowed = set(involutive)
        if self._k.commutator:
            allowed.add(self.generators[0])
        for g in cocycles:
            if g not in allowed:
                raise ValueError(f"cocycle attached to {g!r}, which admits "
                                 f"none")
        # keyed by exactly the involutive generators, in generator order
        self.square_cocycle = {}
        for g in involutive:
            v = tuple(map(operator.index, cocycles.get(g, (0,) * rank)))
            if len(v) != rank:
                raise ValueError(f"cocycle of {g!r} has wrong length")
            self.square_cocycle[g] = v
        self.comm_cocycle = None
        if self._k.commutator:
            v = tuple(map(operator.index,
                          cocycles.get(self.generators[0], (0,) * rank)))
            if len(v) != rank:
                raise ValueError("commutator cocycle has wrong length")
            self.comm_cocycle = v

        self.axis_signs = None
        if axis_signs is not None:
            axis_signs = dict(axis_signs)
            if set(axis_signs) != set(self.generators):
                raise ValueError("axis_signs must cover exactly the quotient "
                                 "generators")
            self.axis_signs = {}
            for g, s in axis_signs.items():
                message = f"axis sign of {g!r} must be +-1"
                s, = _ints((s,), message)
                if s not in (1, -1):
                    raise ValueError(message)
                self.axis_signs[g] = s

        self.name = name
        self._word_matrices = {}  # checked word q -> action, in _word_matrix
        self._validate_structure()

    # -- structural checks --------------------------------------------------

    def _validate_structure(self):
        ident = IntMatrix.identity(self.rank)
        for g, s in self.square_cocycle.items():
            m = self.action[g]
            if m * m != ident:
                raise ValueError(f"action of involutive generator {g!r} does "
                                 f"not square to I")
            if m.apply(s) != s:
                raise ValueError(f"square cocycle of {g!r} is not fixed by "
                                 f"its action")
        self._k.check_structure(self)

    # -- normal forms -------------------------------------------------------

    def element(self, t, q=None) -> GroupElement:
        t = _ints(t, "lattice part must be integers")
        if len(t) != self.rank:
            raise ValueError("lattice part has wrong length")
        if q is None:
            q = self._k.identity
        return GroupElement(t, self._k.check(self, q))

    def identity(self) -> GroupElement:
        return self.element((0,) * self.rank)

    def generator_element(self, name) -> GroupElement:
        zero = (0,) * self.rank
        if name not in self.generators:
            raise ValueError(f"unknown quotient generator {name!r}")
        t, q = self._append_one(zero, self._k.identity, name, 1)
        return GroupElement(t, q)

    def generator_elements(self) -> list[GroupElement]:
        return [self.generator_element(g) for g in self.generators]

    def lattice_basis_elements(self) -> list[GroupElement]:
        out = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            out.append(self.element(tuple(e)))
        return out

    # -- quotient word helpers ---------------------------------------------

    def element_to_word(self, a: GroupElement) -> str:
        """Normal-form word for an element: lattice letters first, then the
        quotient word, with runs collapsed to name^exp."""
        letters = [(self.lattice_names[i], a.t[i])
                   for i in range(self.rank) if a.t[i]]
        return render_word(tuple(letters + self._runs(a.q)))

    def _runs(self, q) -> list[tuple[str, int]]:
        """The letters of the word q with each run of one name collapsed."""
        return [(name, sum(e for _, e in run))
                for name, run in groupby(self._k.letters(self, q), _first)]

    def _word_matrix(self, q) -> IntMatrix:
        """Action of the checked normal-form word q on the lattice, one power
        per run, built once into self._word_matrices.  That memo is keyed by
        q alone, which names a matrix only for this group's actions, so it
        lives on the group and nothing outlives the group."""
        m = self._word_matrices.get(q)
        if m is None:
            m = IntMatrix.identity(self.rank)
            for name, k in self._runs(q):
                m = m * self.action[name] ** k
            self._word_matrices[q] = m
        return m

    def _apply_q(self, q, vec: IntVector) -> IntVector:
        return self._word_matrix(q).apply(vec)

    # -- collection ---------------------------------------------------------

    def _append_one(self, t, q, name, exp):
        """Right-multiply (t, q) by a single generator letter name^exp."""
        s_g = self.square_cocycle.get(name)
        if exp == -1 and s_g is not None:
            # g-hat^-1 = tau(-s_g) g-hat
            t, exp = vec_add(t, self._apply_q(q, vec_neg(s_g))), 1
        return self._k.append(self, t, q, name, exp)

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """a b for elements already in checked normal form."""
        t = vec_add(a.t, self._apply_q(a.q, b.t))
        q = a.q
        for name, exp in self._k.letters(self, b.q):
            t, q = self._append_one(t, q, name, exp)
        return GroupElement(t, q)

    def _mul_pow(self, acc: GroupElement, a: GroupElement,
                 k: int) -> GroupElement:
        """acc a^k for checked acc and a and k >= 0, by repeated squaring:
        the factors a^(2^i) commute, so they collect in any order."""
        while True:
            if k & 1:
                acc = self._mul(acc, a)
            k >>= 1
            if not k:
                return acc
            a = self._mul(a, a)

    def _inv(self, a: GroupElement) -> GroupElement:
        """a^-1 for a checked a."""
        t, q = (0,) * self.rank, self._k.identity
        for name, exp in reversed(self._k.letters(self, a.q)):
            t, q = self._append_one(t, q, name, -exp)
        # a^-1 = lift(a.q)^-1 tau(-a.t), and the letters of a.q reversed and
        # inverted have just collected to lift(a.q)^-1 = (t, q)
        return GroupElement(vec_sub(t, self._apply_q(q, a.t)), q)

    def element_mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._mul(self.element(a.t, a.q), self.element(b.t, b.q))

    def element_inv(self, a: GroupElement) -> GroupElement:
        return self._inv(self.element(a.t, a.q))

    def element_pow(self, a: GroupElement, k: int) -> GroupElement:
        if k < 0:
            return self.element_pow(self.element_inv(a), -k)
        if k == 0:
            return self.identity()
        return self._mul_pow(self.identity(), self.element(a.t, a.q), k)

    def conjugate(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """a b a^-1."""
        a = self.element(a.t, a.q)
        return self._mul(self._mul(a, self.element(b.t, b.q)), self._inv(a))

    def commute(self, a: GroupElement, b: GroupElement) -> bool:
        a, b = self.element(a.t, a.q), self.element(b.t, b.q)
        return self._mul(a, b) == self._mul(b, a)

    def evaluate_word(self, word) -> GroupElement:
        """Evaluate a free word over lattice and quotient generator names."""
        if isinstance(word, str):
            word = parse_word(word)
        acc = self.identity()
        for name, exp in word:
            if name in self.generators:
                t, q = acc.t, acc.q
                for _, step in _run(name, exp):
                    t, q = self._append_one(t, q, name, step)
                acc = GroupElement(t, q)
            elif name in self.lattice_names:
                i = self.lattice_names.index(name)
                vec = tuple(exp if j == i else 0 for j in range(self.rank))
                acc = self._mul(acc, self.element(vec))
            else:
                raise ValueError(f"unknown generator {name!r}")
        return acc

    # -- torsion ------------------------------------------------------------

    def is_torsion(self, a: GroupElement) -> bool:
        """Exact: a has finite order iff a^2 = 1.  Z^n is torsion-free and
        every finite-order element of each quotient has order 1 or 2, so a
        torsion element squares into the lattice and has a torsion, hence
        zero, square."""
        return self.element_mul(a, a) == self.identity()

    def find_torsion(self) -> GroupElement | None:
        """A torsion element of a Dinf extension, or None if there is none.

        The decision is exact.  The lattice is torsion-free, so a torsion
        element maps to a reflection of D-infinity, and every reflection is
        conjugate to u or to v; conjugating by a lift moves the element into
        the coset of u or of v.  The coset of an involutive generator g
        holds an involution (t, g) iff t + A_g t + s_g = 0, that is iff
        -s_g is in the image of I + A_g.  The witness is taken from the
        coset of u when it has one, else from that of v.

        Each coset is tested mod 2 first and solved over Z only if it
        passes: an integer solution reduces mod 2, so a failing coset holds
        no involution.  For an involution A and an A-fixed s the converse
        holds too, as Z^n is a sum of trivial, sign and regular
        Z[C2]-lattices (Reiner, Proc. AMS 1957), on each of which -s is in
        Im(I + A) exactly when it is mod 2; a torsion-free group takes no
        integer solve.
        """
        if self.kind is not QuotientKind.DINF:
            raise ValueError("torsion search is defined for Dinf extensions "
                             "only")
        return self._torsion_witness

    @cached_property
    def _torsion_witness(self) -> GroupElement | None:
        """find_torsion's answer, decided once per group."""
        n = self.rank
        ident = IntMatrix.identity(n)
        for g in self.generators:
            # (I + A_g) t = s_g mod 2 as bit rows: bit j holds column j, with
            # the diagonal bit flipped for I, and bit n the right-hand side
            eqs = [sum((x & 1) << j for j, x in enumerate(row)) ^ (1 << i)
                   | (c & 1) << n
                   for i, (row, c) in enumerate(zip(self.action[g].rows,
                                                    self.square_cocycle[g]))]
            if _gf2_solve(eqs, n) is None:
                continue
            sol = solve_integer(self.action[g] + ident,
                                vec_neg(self.square_cocycle[g]))
            if sol is not None:
                witness = self.element(sol, (g,))
                if self.element_mul(witness, witness) != self.identity():
                    raise RuntimeError(f"torsion witness {witness} does not "
                                       f"square to the identity")
                return witness
        return None

    # -- presentations ------------------------------------------------------

    def _vector_word(self, vec: IntVector) -> Word:
        return tuple((self.lattice_names[i], c)
                     for i, c in enumerate(vec) if c)

    def _inverse_word(self, word: Word) -> Word:
        return tuple((name, -exp) for name, exp in reversed(word))

    def presentation(self) -> FpPresentation:
        """The finite presentation implied by the extension data."""
        gens = self.lattice_names + self.generators
        rels = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                a, b = self.lattice_names[i], self.lattice_names[j]
                rels.append(((a, 1), (b, 1), (a, -1), (b, -1)))
        for g in self.generators:
            for i, e in enumerate(self.lattice_names):
                image = self.action[g].column(i)
                rels.append(((g, 1), (e, 1), (g, -1))
                            + self._inverse_word(self._vector_word(image)))
        for g, s in self.square_cocycle.items():
            rels.append(((g, 1), (g, 1))
                        + self._inverse_word(self._vector_word(s)))
        if (rel := self._k.relator(self)) is not None:
            rels.append(rel)
        return FpPresentation(gens, tuple(rels))

    # -- homology -----------------------------------------------------------

    def _relator_matrix_rows(self):
        """Abelianized relator matrix: rows = generators, columns = the
        nonzero exponent sums of presentation()'s relators, in its order,
        read off the data: e_i - A_g e_i, then 2 g - s_g, then the kind's
        relator (the lattice commutators sum to zero)."""
        # (lattice part, the quotient generator with exponent 2 or None)
        parts = [(tuple(int(k == i) - row[i]
                        for k, row in enumerate(self.action[g].rows)), None)
                 for g in self.generators for i in range(self.rank)]
        parts += [(vec_neg(s), g) for g, s in self.square_cocycle.items()]
        cols = [list(t) + [2 * (h == g) for h in self.generators]
                for t, g in parts]
        gens = self.lattice_names + self.generators
        if (rel := self._k.relator(self)) is not None:
            cols.append([sum(e for x, e in rel if x == h) for h in gens])
        cols = [c for c in cols if any(c)]
        return gens, [[c[i] for c in cols] for i in range(len(gens))]

    @cached_property
    def _h1_data(self) -> _H1Data:
        """The abelianization, built once per group from the Smith form
        P M Q of the relator matrix: H1 is the sum of the Z/d_j, and the
        H1 coordinates of a class x are P x."""
        gens, rows = self._relator_matrix_rows()
        w = smith_rows(rows)
        return _H1Data(gens, w.d, w.p)

    def abelianization(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion coefficients) of pi / [pi, pi]."""
        d = self._h1_data.d
        return d.count(0), tuple(x for x in d if x > 1)

    def h1_generator_orders(self) -> dict[str, int | None]:
        """Order of each generator's image in the abelianization (None for
        infinite)."""
        h1 = self._h1_data
        orders = {}
        for i, g in enumerate(h1.gens):
            order = 1
            for row, d in zip(h1.p, h1.d):
                if d == 0 and row[i]:
                    order = None
                    break
                if d > 1:
                    order = lcm(order, d // gcd(d, row[i]))
            orders[g] = order
        return orders

    # -- orientation --------------------------------------------------------

    def orientation_character(self, a: GroupElement) -> int:
        """w(a) in Z/2: 0 preserving, 1 reversing."""
        if self.axis_signs is None:
            raise ValueError("group carries no axis signs; orientation "
                             "character is undefined")
        a = self.element(a.t, a.q)
        sign = self._word_matrix(a.q).det()
        for name, _ in self._k.letters(self, a.q):
            sign *= self.axis_signs[name]
        return 0 if sign == 1 else 1

    def generator_characters(self) -> dict[str, int]:
        """Orientation character of every lattice and quotient generator;
        a quotient generator's word is its one letter g, so its sign is
        det(A_g) times its axis sign."""
        out = {e: 0 for e in self.lattice_names}
        for g in self.generators:
            if self.axis_signs is None:
                raise ValueError("group carries no axis signs; orientation "
                                 "character is undefined")
            sign = self.axis_signs[g] * self.action[g].det()
            out[g] = 0 if sign == 1 else 1
        return out

    def w1_factors_through_z4(self) -> bool:
        """Whether the orientation character lifts to a map H1 -> Z/4.

        Exact.  The character is x -> w.x mod 2 on generator exponents; it
        vanishes on every relator, since the lattice generators have
        character 0 and every relator has even exponent sum in each
        quotient generator.  In the H1 coordinates y = P x it reads
        y -> c.y with c = w P^-1 mod 2, unique since P is unimodular.  A
        lift sends the generator of a summand Z/d to some a in Z/4 with
        d a = 0 and a = c_j mod 2, so it exists exactly when c_j = 0 on
        every torsion summand with 4 not dividing d; free summands take
        any value.
        """
        chars = self.generator_characters()
        h1 = self._h1_data
        p, nr = h1.p, len(h1.gens)
        # solve P^T c = w over GF(2): equation i is bit j for P[j][i] and
        # bit nr for w_i
        c = _gf2_solve([sum((p[j][i] & 1) << j for j in range(nr))
                        | chars[g] << nr for i, g in enumerate(h1.gens)], nr)
        return not any(c >> j & 1 for j, d in enumerate(h1.d) if d % 4)

    # -- center and friends -------------------------------------------------

    def center(self) -> "CenterDescription":
        """The center: lattice directions fixed by every action, plus at
        most a few quotient-direction generators found by solving the
        commutation equations exactly.

        rank counts the infinite-order generators; finite-order central
        generators are listed but not counted.
        """
        lat_vectors = self._central_lattice_basis()
        gens = [self.element(v) for v in lat_vectors]
        extras = self._central_quotient_generators()
        gens = extras + gens
        witnesses = (self.generator_elements()
                     + self.lattice_basis_elements())
        for z in gens:
            if not all(self._mul(z, w) == self._mul(w, z)
                       for w in witnesses):
                raise RuntimeError(f"central candidate {z} does not commute "
                                   f"with every generator")
        rank = len(lat_vectors) + sum(1 for z in extras
                                      if not self.is_torsion(z))
        return CenterDescription(rank=rank, generators=tuple(gens))

    @cached_property
    def _fixed_rows(self) -> tuple[IntVector, ...]:
        """The rows of A_g - I, stacked in generator order: the central
        lattice vectors are their kernel and central cosets solve them."""
        ident = IntMatrix.identity(self.rank)
        return tuple(r for g in self.generators
                     for r in (self.action[g] - ident).rows)

    def _central_lattice_basis(self):
        if not self.generators:
            return [e.t for e in self.lattice_basis_elements()]
        return kernel_basis(self._fixed_rows)

    def _central_quotient_generators(self):
        """Central elements with nontrivial quotient word: the kind's
        candidates, at most one per quotient direction, solved exactly."""
        return [z for z in map(self._solve_central_in_coset,
                               self._k.central(self)) if z is not None]

    def _finite_action_order(self, g):
        """Least positive k with action(g)^k = I, or None.

        Exact: every finite order in GL(n,Z) divides L(n), so A has finite
        order iff A^L(n) = I, one power by repeated squaring.
        """
        a = self.action[g]
        if not (a ** _ORDER_EXPONENT[self.rank]).is_identity():
            return None
        k, acc = 1, a
        while not acc.is_identity():
            k, acc = k + 1, acc * a
        return k

    def _solve_central_in_coset(self, q) -> GroupElement | None:
        """A central element (t, q) if the commutation equations admit an
        integer solution t, else None."""
        base = self.element((0,) * self.rank, q)
        rhs = []
        for g in self.generators:
            h = self.generator_element(g)
            conj = self._mul(self._mul(h, base), self._inv(h))
            if conj.q != base.q:
                return None
            # h (t,q) h^-1 = (rho(g) t + d, q) must equal (t, q)
            rhs.extend(vec_neg(conj.t))
        sol = solve_integer(self._fixed_rows, rhs)
        if sol is None:
            return None
        return self.element(sol, base.q)

    # -- serialization ------------------------------------------------------

    def to_description(self) -> dict:
        d = {
            "kind": self.kind.value,
            "rank": self.rank,
            "lattice": list(self.lattice_names),
            "generators": list(self.generators),
            "action": {g: (self.action[g].to_lists() if self.rank else None)
                       for g in self.generators},
        }
        cocycles = {}
        for g, s in self.square_cocycle.items():
            if not is_zero_vector(s):
                cocycles[g] = list(s)
        if self.comm_cocycle is not None \
                and not is_zero_vector(self.comm_cocycle):
            cocycles[self.generators[0]] = list(self.comm_cocycle)
        if cocycles:
            d["cocycles"] = cocycles
        if self.axis_signs is not None:
            d["axisSigns"] = dict(self.axis_signs)
        if self.name is not None:
            d["name"] = self.name
        return d

    def __repr__(self):
        tag = self.name or self.kind.value
        return f"ExtensionGroup({tag}, rank={self.rank})"


@dataclass(frozen=True)
class CenterDescription:
    rank: int
    generators: tuple[GroupElement, ...]


def _check_description_shape(d) -> None:
    """Raise ValueError unless d has the JSON shape of a description:
    names are strings, matrices arrays of rows of integers, cocycles
    arrays of integers, axis signs integers.  Tuples pass as arrays."""
    if not isinstance(d, dict):
        raise ValueError("group description must be a JSON object")
    if d.get("name") is not None and not isinstance(d["name"], str):
        raise ValueError("description field 'name' must be a string")

    def array_of(v, ok):
        return isinstance(v, (list, tuple)) and all(ok(x) for x in v)

    def is_int(x):
        return isinstance(x, int) and not isinstance(x, bool)

    for key in ("lattice", "generators"):
        if d.get(key) is not None and \
                not array_of(d[key], lambda n: isinstance(n, str)):
            raise ValueError(f"description field {key!r} must be an array "
                             f"of names")
    for key in ("action", "cocycles", "axisSigns"):
        if d.get(key) is not None and not isinstance(d[key], dict):
            raise ValueError(f"description field {key!r} must be a JSON "
                             f"object")
    for g, m in (d.get("action") or {}).items():
        if m is not None and not array_of(m, lambda r: array_of(r, is_int)):
            raise ValueError(f"action of {g!r} must be an array of rows of "
                             f"integers")
    for g, v in (d.get("cocycles") or {}).items():
        if not array_of(v, is_int):
            raise ValueError(f"cocycle of {g!r} must be an array of "
                             f"integers")
    for g, s in (d.get("axisSigns") or {}).items():
        if not is_int(s):
            raise ValueError(f"axis sign of {g!r} must be +-1")


def from_description(d: dict) -> ExtensionGroup:
    """Build a group from its JSON-style description dict.  A description
    of the wrong shape, or one missing its kind or rank, raises
    ValueError."""
    _check_description_shape(d)
    try:
        kind, rank = QuotientKind(d["kind"]), d["rank"]
    except KeyError as exc:
        raise ValueError(f"group description missing field "
                         f"{exc.args[0]!r}") from None
    action = d.get("action") or {}
    generators = d.get("generators")
    if generators is None:
        if _KINDS[kind].arity <= 1:
            generators = list(action)
        else:
            raise ValueError("description needs a generators list to fix "
                             "generator roles")
    return ExtensionGroup(
        kind,
        rank,
        lattice_names=d.get("lattice"),
        generators=generators,
        action=action,
        cocycles={g: tuple(v) for g, v in (d.get("cocycles") or {}).items()},
        axis_signs=d.get("axisSigns"),
        name=d.get("name"),
    )


def is_block_diagonalizable(theta: IntMatrix) -> bool:
    """Whether a bordered matrix [[1,0],[xi,Psi]] is conjugate in GL(3,Z)
    to blockdiag(1, Psi): true iff xi lies in Im(I - Psi)."""
    if theta.n != 3:
        raise ValueError("expected a 3x3 bordered matrix")
    if theta.rows[0] != (1, 0, 0):
        raise ValueError("first row must be (1, 0, 0)")
    xi = (theta.rows[1][0], theta.rows[2][0])
    psi = IntMatrix([[theta.rows[1][1], theta.rows[1][2]],
                     [theta.rows[2][1], theta.rows[2][2]]])
    if psi.det() != 1 or abs(psi.trace()) <= 2:
        raise ValueError("lower block must be hyperbolic in SL(2,Z)")
    ident = IntMatrix.identity(2)
    return solve_integer(ident - psi, xi) is not None


def verify_homomorphism(src: FpPresentation, images: dict,
                        target: ExtensionGroup) -> bool:
    """Whether generator -> GroupElement images kill every relator of src."""
    missing = [g for g in src.generators if g not in images]
    if missing:
        raise ValueError(f"unmapped generators: {missing}")
    ident = target.identity()
    checked, inverses = {}, {}
    for rel in src.relators:
        acc = ident
        for name, exp in rel:
            if name not in checked:
                checked[name] = target.element(images[name].t,
                                               images[name].q)
            img = checked[name]
            if exp < 0:
                if name not in inverses:
                    inverses[name] = target._inv(img)
                img = inverses[name]
            acc = target._mul_pow(acc, img, abs(exp))
        if acc != ident:
            return False
    return True


def induced_lattice_matrix(lattice_names, images: dict,
                           target: ExtensionGroup) -> IntMatrix:
    """Matrix of a homomorphism restricted to the lattice, given that each
    lattice generator maps to a pure lattice element; columns are images."""
    cols = []
    for name in lattice_names:
        img = images[name]
        if img.q != target._k.identity:
            raise ValueError(f"image of lattice generator {name!r} is not "
                             f"a lattice element")
        cols.append(img.t)
    return IntMatrix.from_columns(cols)
