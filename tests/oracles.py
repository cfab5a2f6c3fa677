"""Independent reference implementations used only by the tests.

Each oracle computes a quantity the library also computes, by a visibly
different method, so agreement is evidence rather than tautology.
"""

from fractions import Fraction
from itertools import combinations

from cohomix.algebra import MultiPoly


def gaussian_binomial(n, k):
    """[n choose k]_q by the q-Pascal recursion, as a coefficient list."""
    if not 0 <= k <= n:
        return [0]
    # table[j] holds [m choose j]_q for the current m
    table = [[1]] + [[0]] * k
    for m in range(1, n + 1):
        new = [[1]]
        for j in range(1, min(m, k) + 1):
            # [m j]_q = [m-1 j-1]_q + q^j [m-1 j]_q
            a = table[j - 1]
            b = [0] * j + table[j]
            width = max(len(a), len(b))
            new.append([
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(width)
            ])
        table = new + [[0]] * (k - len(new) + 1)
    coeffs = table[k]
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def jordan_sl2(k):
    """Jordan type of the derivation X_0 -> X_1 -> X_2 -> 0 on the degree-k
    forms R_k, from sl_2 theory rather than matrix ranks.

    On <X_0, X_1, X_2> the derivation is one nilpotent block of size 3, the
    raising operator of sl_2 on V_2 = Sym^2 C^2 in a suitable basis.  So
    R_k = Sym^k V_2 = sum of V_(2k-4j) over j = 0..k//2 (Cayley-Sylvester),
    and the raising operator has one block of size m + 1 on each V_m.
    """
    return tuple(2 * k + 1 - 4 * j for j in range(k // 2 + 1))


def schur_bialternant(mu, points):
    """Schur value as a ratio of alternants; requires distinct points."""
    pts = [Fraction(x) for x in points]
    n = len(pts)
    parts = list(mu) + [0] * (n - len(mu))

    def det(powers):
        rows = [[x ** p for p in powers] for x in pts]
        total = Fraction(0)
        for perm, sign in _permutations_signed(n):
            prod = Fraction(1)
            for i, j in enumerate(perm):
                prod *= rows[i][j]
            total += sign * prod
        return total

    top = det([parts[j] + n - 1 - j for j in range(n)])
    bottom = det([n - 1 - j for j in range(n)])
    return top / bottom


def _permutations_signed(n):
    def rec(rest, acc, sign):
        if not rest:
            yield acc, sign
            return
        for pos, x in enumerate(rest):
            yield from rec(rest[:pos] + rest[pos + 1 :], acc + [x], sign * (-1) ** pos)

    yield from rec(list(range(n)), [], 1)


def brute_force_partitions(max_parts, max_part, size):
    """All box partitions of `size` as sorted tuples, by brute force over
    multisets, returned as a set."""
    found = set()

    def rec(remaining, cap, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        if len(prefix) == max_parts:
            return
        for part in range(1, min(cap, remaining) + 1):
            rec(remaining - part, part, prefix + [part])

    rec(size, max_part, [])
    return found


def goettsche_betti(k, top):
    """Betti numbers b_0..b_top of Hilb_k(P^2) from the generating product

        prod_m (1 - z^m t^(2m-2))^-1 (1 - z^m t^(2m))^-1 (1 - z^m t^(2m+2))^-1,

    truncated at z^k; returns the coefficients of z^k t^(2p).  The variable
    q below stands for t^2.
    """
    # series[j] = dict q-exponent -> coefficient, for z^j; multiplying by
    # 1/(1 - z^m q^s) in place with j ascending realizes the geometric
    # series, since series[j - m] has already absorbed the factor.
    series = [{0: 1}] + [dict() for _ in range(k)]
    for m in range(1, k + 1):
        for shift in (m - 1, m, m + 1):
            for j in range(m, k + 1):
                src = series[j - m]
                dst = series[j]
                for e, c in list(src.items()):
                    dst[e + shift] = dst.get(e + shift, 0) + c
    out = series[k]
    return [out.get(p, 0) for p in range(top + 1)]


def grassmannian_cells_brute(n, k, weights):
    """Cell-dimension histogram over all fixed subspaces, directly."""
    hist = {}
    for idx in combinations(range(n), n - k):
        inside = set(idx)
        d = sum(
            1
            for i in idx
            for j in range(n)
            if j not in inside and weights[j] - weights[i] < 0
        )
        hist[d] = hist.get(d, 0) + 1
    return [hist.get(d, 0) for d in range(k * (n - k) + 1)]


def riccati_field(a, k, variables):
    """The Riccati field B' = A21 + A22 B - B A11 - B A12 B of the n x n
    matrix `a` (rows of MultiPoly over `variables`) on the chart of column
    spans of [I_m; B], m = n - k, where B[j][i] is the variable
    'w_{i+1}_{j+1}'.  Built by dense matrix products of MultiPoly values;
    returns B'[j][i] in the order i ascending, then j ascending.
    """
    n = len(a)
    m = n - k
    zero = MultiPoly(variables)

    def var(name):
        return MultiPoly(variables, {tuple(int(x == name) for x in variables): 1})

    def product(x, y):
        return [
            [sum((x[r][t] * y[t][c] for t in range(len(y))), zero) for c in range(len(y[0]))]
            for r in range(len(x))
        ]

    def block(rows, cols):
        return [[a[r][c] for c in cols] for r in rows]

    top, bottom = range(m), range(m, n)
    b = [[var("w_%d_%d" % (i + 1, j + 1)) for i in range(m)] for j in range(k)]
    a22_b = product(block(bottom, bottom), b)
    b_a11 = product(b, block(top, top))
    b_a12_b = product(product(b, block(top, bottom)), b)
    a21 = block(bottom, top)
    return [
        a21[j][i] + a22_b[j][i] - b_a11[j][i] - b_a12_b[j][i]
        for i in range(m)
        for j in range(k)
    ]


def grassmann_zero_points(n, k):
    """The zeros of the Riccati field of N + H/2 on the chart [I_m; B],
    m = n - k: one point per m-subset I of the eigenvectors of N + H/2,
    N the principal nilpotent and H = diag(n-1, n-3, ..., 1-n).

    With h_r = (n-1)/2 - r, the eigenvector of eigenvalue h_c is column c
    of the upper unitriangular U with U[r][c] = -U[r+1][c] / (h_r - h_c)
    for r < c.  The span of the columns at I is [top; bottom], and its
    chart point is B = bottom * top^-1.  Each point is returned as the
    tuple of Fractions B[j][i], i ascending then j ascending.
    """
    m = n - k
    h = [Fraction(n - 1, 2) - r for r in range(n)]
    u = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for c in range(n):
        for r in range(c - 1, -1, -1):
            u[r][c] = -u[r + 1][c] / (h[r] - h[c])
    points = []
    for cols in combinations(range(n), m):
        top = [[u[r][c] for c in cols] for r in range(m)]
        bottom = [[u[r][c] for c in cols] for r in range(m, n)]
        b = [_solve_right(top, row) for row in bottom]
        points.append(tuple(b[j][i] for i in range(m) for j in range(k)))
    return points


def _solve_right(top, row):
    # the x with x * top = row, by Gauss-Jordan elimination on top's
    # transpose augmented with row
    size = len(top)
    rows = [[top[t][r] for t in range(size)] + [row[r]] for r in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][size] for r in range(size)]
