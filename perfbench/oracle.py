"""Independent arithmetic for the benchmark's correctness checks.

Nothing here imports solgeom.  Groups are plain dicts in the
description format the README documents (kind, rank, lattice,
generators, action, cocycles, axisSigns), and every fact the checks need
is computed from them with small exact routines: determinants, gcds of
minors, integer solvability, and the abelianized relation matrix read
straight off the extension data.
"""

from __future__ import annotations

import itertools
from math import gcd

# ---------------------------------------------------------------------------
# small exact matrix arithmetic on lists of lists


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(m, k):
    """d_k(M): the gcd of all k x k minors of M (0 if all vanish)."""
    rows, cols = len(m), len(m[0]) if m else 0
    g = 0
    for ri in itertools.combinations(range(rows), k):
        sub_rows = [m[i] for i in ri]
        for ci in itertools.combinations(range(cols), k):
            g = gcd(g, det([[r[j] for j in ci] for r in sub_rows]))
            if g == 1:
                return 1
    return g


def rank_and_divisors(m):
    """(rank, [d_1, ..., d_rank]) of an integer matrix."""
    rows, cols = len(m), len(m[0]) if m else 0
    divisors = []
    for k in range(1, min(rows, cols) + 1):
        d = minor_gcd(m, k)
        if d == 0:
            break
        divisors.append(d)
    return len(divisors), divisors


def cokernel(m, nrows):
    """(free rank, torsion coefficients > 1) of Z^nrows / column span."""
    if not m or not m[0]:
        return nrows, ()
    r, d = rank_and_divisors(m)
    factors = [d[0]] + [d[k] // d[k - 1] for k in range(1, r)]
    return nrows - r, tuple(f for f in factors if f > 1)


def solvable(a, b):
    """Whether A x = b has an integer solution: equal rank r and equal
    d_r for A and [A | b]."""
    r, d = rank_and_divisors(a)
    aug = [row + [bi] for row, bi in zip(a, b)]
    r2, d2 = rank_and_divisors(aug)
    if r2 != r:
        return False
    return r == 0 or d[-1] == d2[-1]


# ---------------------------------------------------------------------------
# pillowcase invariants


def invariants(max_entry):
    """All (p, q, r): p odd, |p| > 1, q and r even and positive,
    p^2 - qr = 1, entries within max_entry; in (|p|, sign, q) order."""
    out = []
    for ap in range(3, max_entry + 1, 2):
        for p in (ap, -ap):
            for q in range(2, max_entry + 1, 2):
                if (p * p - 1) % q == 0:
                    r = (p * p - 1) // q
                    if r % 2 == 0 and 0 < r <= max_entry:
                        out.append((p, q, r))
    return out


def is_invariant(m):
    """Whether a 2x2 matrix literal is a valid invariant with q > 0."""
    (p, q), (r, p2) = m
    return (p == p2 and p % 2 != 0 and abs(p) > 1 and q % 2 == 0
            and r % 2 == 0 and p * p - q * r == 1 and q > 0)


def normal_form(m):
    """The q > 0 representative of {M, M^-1}, or None."""
    if len(m) != 2 or any(len(row) != 2 for row in m):
        return None
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        return None
    for cand in (m, [[d, -b], [-c, a]]):
        if is_invariant(cand):
            return (cand[0][0], cand[0][1], cand[1][0])
    return None


def pillowcase_description(p, q, r):
    """Extension data of the pillowcase group of (p, q, r), built from
    the definition: u acts by blockdiag([[p,q],[-r,-p]], -1), v by
    diag(1,-1,-1), u^2 spans the +1-eigenline of the u-block, v^2 = x."""
    g = gcd(q, p - 1)
    e, f = q // g, (1 - p) // g
    return {
        "kind": "Dinf", "rank": 3, "lattice": ["x", "y", "z"],
        "generators": ["u", "v"],
        "action": {"u": [[p, q, 0], [-r, -p, 0], [0, 0, -1]],
                   "v": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]},
        "cocycles": {"u": [e, f, 0], "v": [1, 0, 0]},
        "axisSigns": {"u": -1, "v": -1},
    }


# ---------------------------------------------------------------------------
# facts about a group description


def _involutive(d):
    kind, gens = d["kind"], d.get("generators", [])
    if kind == "C2":
        return gens[:1]
    if kind == "ZxC2":
        return gens[1:]
    if kind == "Dinf":
        return list(gens)
    return []


def relation_columns(d):
    """Abelianized relators of the group's presentation, as columns over
    the generators lattice + quotient: g e g^-1 = A_g e gives e - A_g e,
    g^2 = s_g gives 2g - s_g, [s, g] = c gives -c, and the Klein relation
    x y x^-1 = y^-1 gives 2y."""
    n = d["rank"]
    gens = list(d.get("generators", []))
    names = list(d.get("lattice", [f"e{i + 1}" for i in range(n)])) + gens
    idx = {g: n + i for i, g in enumerate(gens)}
    cocycles = d.get("cocycles", {})
    cols = []
    for g in gens:
        a = d["action"][g] if n else []
        for i in range(n):
            col = [0] * len(names)
            col[i] += 1
            for j in range(n):
                col[j] -= a[j][i]
            cols.append(col)
    for g in _involutive(d):
        col = [0] * len(names)
        col[idx[g]] = 2
        for j, s in enumerate(cocycles.get(g, [0] * n)):
            col[j] -= s
        cols.append(col)
    if d["kind"] == "ZxC2":
        col = [0] * len(names)
        for j, c in enumerate(cocycles.get(gens[0], [0] * n)):
            col[j] -= c
        cols.append(col)
    if d["kind"] == "Klein":
        col = [0] * len(names)
        col[idx[gens[1]]] = 2
        cols.append(col)
    cols = [c for c in cols if any(c)]
    rows = [[c[i] for c in cols] for i in range(len(names))]
    return names, rows


def h1(d):
    """(free rank, torsion) of the abelianization."""
    names, rows = relation_columns(d)
    return cokernel(rows, len(names))


def characters(d):
    """w1 on generators: 1 where det(action) * axis sign is -1."""
    n = d["rank"]
    out = {e: 0 for e in d.get("lattice", [])}
    for g in d.get("generators", []):
        sign = det(d["action"][g]) if n else 1
        out[g] = 0 if sign * d["axisSigns"][g] == 1 else 1
    return out


def w1_lifts_to_z4(d):
    """Whether some homomorphism H1 -> Z/4 reduces to w1 mod 2: try every
    assignment of lifts on the generators against every relator."""
    names, rows = relation_columns(d)
    chars = characters(d)
    ncols = len(rows[0]) if rows else 0
    choices = [(chars[g], chars[g] + 2) for g in names]
    for phi in itertools.product(*choices):
        if all(sum(rows[i][c] * phi[i] for i in range(len(names))) % 4 == 0
               for c in range(ncols)):
            return True
    return False


def finite_order(a):
    """Whether a unimodular matrix of size <= 3 has finite order: every
    finite order in GL(2,Z) and GL(3,Z) divides 12, so A^12 = I decides."""
    return matrix_power(a, 12) == identity(len(a))


def matrix_power(a, k):
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def fixed_lattice_rank(d):
    """Rank of the lattice vectors fixed by every action."""
    n = d["rank"]
    gens = d.get("generators", [])
    if not n:
        return 0
    if not gens:
        return n
    stacked = []
    for g in gens:
        stacked.extend(mat_add(d["action"][g], identity(n), -1))
    r, _ = rank_and_divisors(stacked)
    return n - r


def center_rank(d):
    """Rank of the center, for the kinds and actions the benchmark uses:
    the common fixed lattice, plus one quotient direction for Zq and
    Klein groups whose (first) generator acts with finite order (a power
    of s, or an even power of x, is then central).  Dinf is centreless
    and the ZxC2, C2 and Trivial inputs add no infinite-order quotient
    direction."""
    rank = fixed_lattice_rank(d)
    kind = d["kind"]
    if kind in ("Zq", "Klein"):
        g = d["generators"][0]
        if d["rank"] == 0 or finite_order(d["action"][g]):
            rank += 1
    return rank


def has_torsion(d):
    """A Dinf extension has torsion exactly when -s_g lies in Im(I + A_g)
    for g = u or v, since every reflection of the infinite dihedral group
    is conjugate to u or to v."""
    n = d["rank"]
    if n == 0:
        return True
    for g in d["generators"]:
        a = mat_add(identity(n), d["action"][g])
        s = d.get("cocycles", {}).get(g, [0] * n)
        if solvable(a, [-x for x in s]):
            return True
    return False


def is_involution_witness(d, t, g):
    """Whether (t, g) squares to the identity: t + A_g t + s_g = 0."""
    n = d["rank"]
    a = d["action"][g] if n else []
    s = d.get("cocycles", {}).get(g, [0] * n)
    at = mat_vec(a, t) if n else []
    return all(t[i] + at[i] + s[i] == 0 for i in range(n))


def parse_word(text, names):
    """A rendered word like "x^2 y z^-2 u" as a list of (name, exponent)."""
    out = []
    for token in text.split():
        name, _, exp = token.partition("^")
        if name not in names:
            raise ValueError(f"unknown letter {name!r}")
        out.append((name, int(exp) if exp else 1))
    return out


# ---------------------------------------------------------------------------
# GL(2,Z) enumeration for the sweep's instance counts


def unimodular_box(box):
    rng = range(-box, box + 1)
    return [(a, b, c, d) for a, b, c, d in itertools.product(rng, repeat=4)
            if abs(a * d - b * c) == 1]


# the five noncentral finite-order classes of GL(2,Z): reflection, swap,
# and rotations of order 3, 4 and 6
NONCENTRAL_REPRESENTATIVES = (
    ((1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((0, 1), (-1, -1)),
    ((0, 1), (-1, 0)),
    ((0, 1), (-1, 1)),
)


def centralizer_count(rep, box):
    m = [list(r) for r in rep]
    count = 0
    for t in unimodular_box(box):
        c = [[t[0], t[1]], [t[2], t[3]]]
        if mat_mul(c, m) == mat_mul(m, c):
            count += 1
    return count


def bordered_family_size(a_max):
    """Number of (a, b, c) with 2 <= a <= a_max and bc = a^2 - 1."""
    return sum(1 for a in range(2, a_max + 1)
               for b in range(1, a * a) if (a * a - 1) % b == 0)
