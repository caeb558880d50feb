"""Independent desk oracles used by the tests.

Nothing here imports the package under test: the multiplication table of the
single-edge algebra is written out by hand, elimination is a dense
textbook Gauss-Jordan over Fraction (or mod a prime), and the flavor
identities and associativity are checked pair by pair (triple by triple)
from a plain table, which :func:`dense_table` writes out from an algebra's products.
These are deliberately dumb so they can arbitrate when the real solver and
the closed-form generator disagree.  :func:`sparse_leibniz_system` is the
tests' full system: written from the products dict, the dimension and the
characteristic alone, it shares no table with the package's generator, so
a wrong generator table shows as a difference from it.  The other
oracles' results are dense; :func:`sparse_vectors` turns them into the
dicts the package takes.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import gcd

# single-edge algebra, basis order e1, e2, a(1->2), a(2->1), c1, c2
EDGE_DIM = 6
EDGE_TABLE = [[-1] * 6 for _ in range(6)]
EDGE_TABLE[0][0] = 0  # e1 e1 = e1
EDGE_TABLE[1][1] = 1  # e2 e2 = e2
EDGE_TABLE[0][2] = 2  # e1 a12 = a12
EDGE_TABLE[2][1] = 2  # a12 e2 = a12
EDGE_TABLE[1][3] = 3  # e2 a21 = a21
EDGE_TABLE[3][0] = 3  # a21 e1 = a21
EDGE_TABLE[0][4] = 4  # e1 c1 = c1
EDGE_TABLE[4][0] = 4  # c1 e1 = c1
EDGE_TABLE[1][5] = 5  # e2 c2 = c2
EDGE_TABLE[5][1] = 5  # c2 e2 = c2
EDGE_TABLE[2][3] = 4  # a12 a21 = c1
EDGE_TABLE[3][2] = 5  # a21 a12 = c2


def dense_table(algebra):
    """The plain table of an algebra given as ``dim`` and ``products`` (pair
    (p, q) -> r with b_p b_q = b_r): table[p][q] = r, or -1 when the product
    vanishes."""
    table = [[-1] * algebra.dim for _ in range(algebra.dim)]
    for (p, q), r in algebra.products.items():
        table[p][q] = r
    return table


def dense_rref(rows, modulus=0):
    """Plain dense Gauss-Jordan over Fraction, or, given a prime modulus, over
    GF(modulus) on ints reduced mod modulus: (reduced rows, pivot cols)."""
    if modulus:
        mat = [[x % modulus for x in r] for r in rows]
    else:
        mat = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        src = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if src is None:
            continue
        mat[rank], mat[src] = mat[src], mat[rank]
        pv = mat[rank][col]
        inv = pow(pv, -1, modulus) if modulus else None
        mat[rank] = [(v * inv % modulus if modulus else v / pv) if v else v for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [((a - f * b) % modulus if modulus else a - f * b) if b else a for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat, pivots


def dense_nullspace(rows, ncols, modulus=0):
    """Kernel basis, free variable set to 1, ordered by free column; over
    GF(modulus) (:func:`dense_rref`) given a prime modulus."""
    mat, pivots = dense_rref(rows, modulus)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0 if modulus else Fraction(0)] * ncols
        v[f] = 1 if modulus else Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -mat[i][f] % modulus if modulus else -mat[i][f]
        basis.append(tuple(v))
    return basis


def leibniz_rows(table, flavor):
    """All constraints of one flavor on a map Theta, one dense row per basis
    pair (x, y) and output coordinate, zero rows dropped.

    ``table`` is a plain list of lists: table[x][y] is the index of the basis
    element b_x b_y, or -1 when the product vanishes.  Unknown (p, q), the
    coefficient of b_p in Theta(b_q), sits at index p*dim + q.  Each row is a
    coordinate of the identity written out literally as LHS - RHS:

        derivation  Theta(xy) - Theta(x) y - x Theta(y)
        jordan      Theta(xy) + Theta(yx) - Theta(x) y - y Theta(x) - x Theta(y) - Theta(y) x
        anti        Theta(xy) - Theta(y) x - y Theta(x)
    """
    dim = len(table)
    rows = []
    for x, y in product(range(dim), repeat=2):
        expr = [[Fraction(0)] * (dim * dim) for _ in range(dim)]  # expr[p][unknown]

        def theta(s, sign):  # sign * Theta(b_s)
            if s >= 0:
                for p in range(dim):
                    expr[p][p * dim + s] += sign

        def theta_times(src, right):  # - Theta(b_src) b_right
            for u in range(dim):
                if table[u][right] >= 0:
                    expr[table[u][right]][u * dim + src] -= 1

        def times_theta(left, src):  # - b_left Theta(b_src)
            for u in range(dim):
                if table[left][u] >= 0:
                    expr[table[left][u]][u * dim + src] -= 1

        theta(table[x][y], 1)
        if flavor == "jordan":
            theta(table[y][x], 1)
        if flavor in ("derivation", "jordan"):
            theta_times(x, y)
            times_theta(x, y)
        if flavor in ("jordan", "anti"):
            times_theta(y, x)
            theta_times(y, x)
        rows.extend(r for r in expr if any(r))
    return rows


# flavor -> (inner, outer) terms of its identity at the basis pair (x, y),
# as leibniz_rows writes them, each element named by its place in the pair
# (0 for x, 1 for y): inner (i, k) is +Theta(b_i b_k); outer ("right", s, k)
# is -Theta(b_s) b_k and ("left", s, k) is -b_k Theta(b_s)
IDENTITIES = {
    "derivation": ([(0, 1)], [("right", 0, 1), ("left", 1, 0)]),
    "jordan": ([(0, 1), (1, 0)], [("right", 0, 1), ("left", 0, 1), ("left", 1, 0), ("right", 1, 0)]),
    "anti": ([(0, 1)], [("right", 1, 0), ("left", 0, 1)]),
}


def sparse_leibniz_system(dim, products, flavor, characteristic=0):
    """The whole system of one flavor, sparse, written from ``dim`` and
    ``products`` (pair (x, y) -> s with b_x b_y = b_s) alone, in the form the
    package's full system takes: each equation nonzero in the field once,
    normalized, the rows sorted by their sorted items.

    Each pair (x, y) is taken once, for jordan only x <= y (its equations at
    (x, y) and (y, x) are the same).  Each inner term b_s adds +1 at unknown
    (p, s) to coordinate p, for every p; each outer term adds -1 at
    (u, src) to coordinate p for every b_u b_k = b_p ("right") or
    b_k b_u = b_p ("left").  Over the rationals a row is divided by the gcd
    of its entries, signed so its smallest column is positive, and its
    entries made Fractions; over GF(p) it is scaled so that entry is 1.
    """
    by_right, by_left = [[] for _ in range(dim)], [[] for _ in range(dim)]
    for (x, y), s in products.items():
        by_right[y].append((x, s))  # b_x b_y = b_s
        by_left[x].append((y, s))
    inner, outer = IDENTITIES[flavor]
    keys = set()
    for x in range(dim):
        for y in range(x if flavor == "jordan" else 0, dim):
            pair = (x, y)
            rows = defaultdict(dict)  # coordinate p -> {unknown: coefficient}
            for i, k in inner:
                if (s := products.get((pair[i], pair[k]))) is not None:
                    for p in range(dim):
                        rows[p][p * dim + s] = rows[p].get(p * dim + s, 0) + 1
            for side, i, k in outer:
                for u, p in (by_right if side == "right" else by_left)[pair[k]]:
                    j = u * dim + pair[i]
                    rows[p][j] = rows[p].get(j, 0) - 1
            for row in rows.values():
                row = {j: c for j, c in row.items() if (c % characteristic if characteristic else c)}
                if not row:
                    continue
                lead = row[min(row)]
                if characteristic:
                    inv = pow(lead, -1, characteristic)
                    row = {j: c * inv % characteristic for j, c in row.items()}
                else:
                    g = gcd(*row.values()) * (1 if lead > 0 else -1)
                    row = {j: c // g for j, c in row.items()}
                keys.add(tuple(sorted(row.items())))
    return [{j: c if characteristic else Fraction(c) for j, c in key} for key in sorted(keys)]


def verify_literal(table, entries, flavor, modulus=0):
    """Whether the map Theta satisfies the flavor identity on all dim^2 basis
    pairs (x, y), each identity written out as in :func:`leibniz_rows`.

    ``table`` is a plain list of lists as there; ``entries`` maps p*dim + q
    to the coefficient of b_p in Theta(b_q), absent meaning zero.  With a
    ``modulus`` p the coefficients are integers and compared mod p.
    """
    dim = len(table)

    def basis(s):  # b_s as a dense list, the zero vector for s = -1
        return [1 if p == s else 0 for p in range(dim)]

    def theta(s):  # Theta(b_s) as a dense list
        return [entries.get(p * dim + s, 0) if s >= 0 else 0 for p in range(dim)]

    def times(u, v):  # product of two dense elements
        out = [0] * dim
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                if ui and vj and table[i][j] >= 0:
                    out[table[i][j]] += ui * vj
        return out

    for x, y in product(range(dim), repeat=2):
        bx, by = basis(x), basis(y)
        if flavor == "derivation":
            lhs = theta(table[x][y])
            rhs = [times(theta(x), by), times(bx, theta(y))]
        elif flavor == "jordan":
            lhs = [s + t for s, t in zip(theta(table[x][y]), theta(table[y][x]))]
            rhs = [times(theta(x), by), times(by, theta(x)), times(bx, theta(y)), times(theta(y), bx)]
        else:  # anti
            lhs = theta(table[x][y])
            rhs = [times(theta(y), bx), times(by, theta(x))]
        for p in range(dim):
            diff = lhs[p] - sum(term[p] for term in rhs)
            if (diff % modulus if modulus else diff) != 0:
                return False
    return True


def commutator_literal(table, k):
    """The map Theta(b_q) = b_k b_q - b_q b_k of a plain list-of-lists table,
    as p*dim + q -> nonzero integer coefficient, one basis pair at a time."""
    dim = len(table)
    out = {}
    for q in range(dim):
        for p, sign in ((table[k][q], 1), (table[q][k], -1)):
            if p >= 0:
                out[p * dim + q] = out.get(p * dim + q, 0) + sign
    return {j: c for j, c in out.items() if c}


def parameter_basis_literal(arrows, characteristic=0):
    """The (t, d) of each vector of the closed-form basis of the structured
    parameters, from the sorted ``arrows`` alone: a unit t per arrow, in
    order; then, per arrow (u, v) in order, d = 1 on it and on the first
    arrow (min, max) of every other edge if it is an arrow of the last edge
    (the largest (min, max) pair), else, if u > v, d = -1 on (v, u) and 1
    on (u, v).  Over GF(p) -1 is written p - 1."""
    minus_one = characteristic - 1 if characteristic else -1
    last = max((min(ar), max(ar)) for ar in arrows)
    vectors = [({ar: 1}, {}) for ar in arrows]
    for u, v in arrows:
        if (min(u, v), max(u, v)) == last:
            vectors.append(({}, {ar: 1 for ar in arrows if ar == (u, v) or ar[0] < ar[1] and ar != last}))
        elif u > v:
            vectors.append(({}, {(v, u): minus_one, (u, v): 1}))
    return vectors


def cycle_consistency_kernel(arrows, nbrs, characteristic=0):
    """Dense kernel of the per-vertex cycle-consistency conditions on the
    structured parameters, over the rationals or GF(characteristic), from
    the ``arrows`` and the neighbour lists ``nbrs`` (vertex -> increasing
    neighbours) alone.  Coordinates: a t per arrow, then a d per arrow, in
    ``arrows`` order; the t are free, and at each vertex i with neighbours
    j0 < j1 < ..., d(i, j0) + d(j0, i) = d(i, j) + d(j, i) for every j."""
    m = len(arrows)
    pos = {ar: k for k, ar in enumerate(arrows)}
    rows = []
    for i, nb in nbrs.items():
        for j in nb[1:]:
            row = [0] * (2 * m)
            for ar, sign in (((i, nb[0]), 1), ((nb[0], i), 1), ((i, j), -1), ((j, i), -1)):
                row[m + pos[ar]] += sign
            rows.append(row)
    return dense_nullspace(rows, 2 * m, characteristic)


def associative_literal(table):
    """Whether (b_x b_y) b_z == b_x (b_y b_z) for all dim^3 basis triples of
    a plain list-of-lists table (-1 for a vanishing product)."""
    dim = len(table)

    def prod(x, y):
        return table[x][y] if x >= 0 and y >= 0 else -1

    return all(prod(prod(x, y), z) == prod(x, prod(y, z)) for x, y, z in product(range(dim), repeat=3))


def sparse_vectors(vectors):
    """Dense vectors as dicts index -> nonzero entry, the one vector form the
    package takes."""
    return [{j: x for j, x in enumerate(v) if x} for v in vectors]


def check_structure(algebra, entries):
    """Zero-pattern audit of a derivation map given as p*dim + q -> nonzero
    coefficient of b_p in Theta(b_q): the image of e(i) lies on arrows
    incident to i, that of a(i->j) on a(i->j), c(i) and c(j), and that of
    c(i) on c(i).  Each index is classified through the algebra's index
    maps ``e_at`` (vertex -> index), ``a_at`` ((source, target) -> index)
    and ``c_at`` (vertex -> index)."""
    dim = algebra.dim
    kind = {k: ("e", i, 0) for i, k in algebra.e_at.items()}
    kind.update({k: ("a", i, j) for (i, j), k in algebra.a_at.items()})
    kind.update({k: ("c", i, 0) for i, k in algebra.c_at.items()})
    for j in entries:
        p, q = divmod(j, dim)
        (out, out_at, out_to), (src, src_at, src_to) = kind[p], kind[q]
        if src == "e":
            ok = out == "a" and src_at in (out_at, out_to)
        elif src == "a":
            ok = p == q or (out == "c" and out_at in (src_at, src_to))
        else:
            ok = p == q
        if not ok:
            return False
    return True


def edge_leibniz_rows():
    """All Leibniz constraints for the single-edge algebra, one dense row per
    basis pair and output coordinate; unknown (p, q) sits at index p*6 + q."""
    return leibniz_rows(EDGE_TABLE, "derivation")


def edge_derivation_family():
    """The brute-force derivation space of the single-edge algebra."""
    return dense_nullspace(edge_leibniz_rows(), EDGE_DIM * EDGE_DIM)


def center_literal(table):
    """Kernel basis of the commutator equations x b_k - b_k x = 0 of a plain
    table, one dense row per k and output coordinate p, zero rows dropped:
    x_u enters (x b_k)_p with +1 where table[u][k] = p and (b_k x)_p with -1
    where table[k][u] = p."""
    dim = len(table)
    rows = []
    for k, p in product(range(dim), repeat=2):
        row = [(table[u][k] == p) - (table[k][u] == p) for u in range(dim)]
        if any(row):
            rows.append(row)
    return dense_nullspace(rows, dim)
