"""Exact arithmetic kernels.

Partitions, Schur polynomial evaluation, fraction-free rank computation,
Jordan types of nilpotent matrices, cyclotomic factor stripping, and two
small polynomial containers.  The kernel is integer: Schur values are
small integer determinants at integer points, and RowSpace reduces
sparse integer rows, each a dict of its nonzero entries built where the
row is born.  fractions.Fraction enters at one edge only: matrix rows,
for matrix_rank and RationalMatrix; matrix_rank scales its rows to
integers once on the way in, and only the gate that builds a
RationalMatrix row imports fractions.  Nothing in this package touches
floating point: a float point, matrix entry, or polynomial coefficient,
value or scalar raises TypeError, and so does a Fraction Schur point,
polynomial coefficient, value or scalar.
"""

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations
from math import gcd, lcm, prod
from operator import add, index, neg, sub

from .errors import NotNilpotent


class Partition:
    """An integer partition, stored as a weakly decreasing tuple of parts.

    >>> Partition((2, 1)).size
    3
    >>> len(Partition(()))
    0
    >>> str(Partition((2, 1)))
    '2,1'
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(map(index, parts))
        for a, b in zip(parts, parts[1:]):
            if b > a:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 1:
            raise ValueError("parts must be positive: %r" % (parts,))
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text):
        """Inverse of str: '2,1' -> Partition((2, 1)), '' -> Partition(()).
        A part that is not an integer raises ValueError naming it."""
        text = text.strip()
        if not text:
            return cls(())
        parts = []
        for i, part in enumerate(text.split(","), 1):
            try:
                parts.append(_parse_int(part))
            except ValueError:
                message = "part %d of partition %r is not an integer: %r"
                raise ValueError(message % (i, text, part)) from None
        return cls(parts)


def _parse_int(text):
    """An optional sign and ASCII digits, with surrounding whitespace, as an
    int.  int() alone would also read '1_0' as 10 and any Unicode decimal
    digit, such as the Arabic-Indic one, as its value; those raise here.

    >>> [_parse_int(t) for t in ('7', ' -12 ', '+0')]
    [7, -12, 0]
    """
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer: %r" % (text,))
    return int(text)


def partitions_in_box(max_parts, max_part, size):
    """All partitions of `size` with at most max_parts parts, each part at
    most max_part, in descending lexicographic order.

    >>> [p.parts for p in partitions_in_box(2, 2, 2)]
    [(2,), (1, 1)]
    >>> [p.parts for p in partitions_in_box(7, 3, 3)]
    [(3,), (2, 1), (1, 1, 1)]
    >>> partitions_in_box(3, 3, 0)
    [Partition(())]
    """
    max_parts, max_part, size = map(index, (max_parts, max_part, size))
    if max_parts < 0 or max_part < 0 or size < 0:
        raise ValueError("arguments must be nonnegative")
    out = []
    if size > max_parts * max_part:
        return out
    parts, rest = [], size
    while True:
        # Complete greedily with the largest parts that fit: the next
        # partition in descending order.
        cap = parts[-1] if parts else max_part
        while rest:
            part = min(rest, cap)
            parts.append(part)
            rest -= part
        out.append(Partition(tuple(parts)))
        # Back up to the last part that can shrink by one and still leave
        # room for the rest in the free slots.
        while parts:
            part = parts.pop()
            rest += part
            if rest - part + 1 <= (part - 1) * (max_parts - len(parts) - 1):
                parts.append(part - 1)
                rest -= part - 1
                break
        else:
            return out


def _fraction(row):
    # The one gate for a RationalMatrix row: int and Fraction entries come
    # back as a tuple of Fractions; anything else, a float, a str or a
    # Decimal included, raises TypeError.  Only here is fractions imported,
    # so what builds no RationalMatrix never loads it (nor decimal).
    from fractions import Fraction

    row = tuple(row)
    for c in row:
        if not isinstance(c, (int, Fraction)):
            raise TypeError("expected an int or Fraction, got %s" % type(c).__name__)
    return tuple(map(Fraction, row))


@lru_cache(maxsize=4096, typed=True)
def _complete_homogeneous(top, *points):
    # h_0..h_top at the integer points, padded with len(points) zeros on
    # each side.  The one-variable-at-a-time recurrence keeps this
    # O(len(points) * top) integer operations.  Cached results are shared
    # between calls, hence the tuple.  Each point is an argument of its own,
    # so the cache is keyed by its type too: a float or a Fraction always
    # misses, and operator.index refuses it.
    h = [1] + [0] * top
    for x in map(index, points):
        for m in range(1, top + 1):
            h[m] += x * h[m - 1]
    pad = [0] * len(points)
    return tuple(pad + h + pad)


@lru_cache(maxsize=4096, typed=True)
def _elementary(*points):
    # e_0..e_len(points) at the integer points, padded as above: the same
    # recurrence, run downwards so that each e_(m-1) is read before it
    # takes in x.
    e = [1] + [0] * len(points)
    for n, x in enumerate(map(index, points), 1):
        for m in range(n, 0, -1):
            e[m] += x * e[m - 1]
    pad = [0] * len(points)
    return tuple(pad + e + pad)


@lru_cache(maxsize=256)
def _conjugate(parts):
    # Column lengths of the diagram, for schur_evaluate, jordan_type and
    # gotzmann._chart_tangent_weights.  schur_evaluate reads one partition
    # at many points in a row, so a small cache serves it.
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def _determinant(rows):
    # Bareiss fraction-free elimination (Bareiss 1968): each step divides
    # exactly by the previous pivot, so every entry stays an integer minor.
    # schur_evaluate reads sizes 2 and 3 off its sums itself.
    n = len(rows)
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            pivot = next((r for r in range(c + 1, n) if m[r][c] != 0), None)
            if pivot is None:
                return 0
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        p = m[c][c]
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (p * m[r][j] - m[r][c] * m[c][j]) // prev
        prev = p
    return sign * m[-1][-1]


def schur_evaluate(mu, points):
    """Value of the Schur polynomial s_mu at integer points, as an int.

    mu is a Partition or a weakly decreasing sequence of nonnegative parts;
    trailing zero parts are dropped, and any other sequence raises
    ValueError.  More parts than points gives zero; the empty partition
    gives one.  A point that is not an integer, a Fraction or a float,
    raises TypeError, whatever the cache holds.

    Each call is one lookup in a bounded cache, keyed by the points and
    their types as given, plus one small determinant.  A miss computes the
    complete homogeneous or elementary sums of the points and pads them
    with zeros, so evaluating every partition of a box at the same point
    does that work once.  The determinant has size min(len(mu), mu_1).  Up
    to size 3 its entries are read by index from the cached sums and
    expanded by cofactors; from size 4 on it goes to Bareiss elimination.
    When mu_1 >= len(mu) it is Jacobi-Trudi in the complete homogeneous
    sums, det(h_(mu_i - i + j)); otherwise it is the dual Jacobi-Trudi
    (Naegelsbach-Kostka) identity in the elementary sums on the conjugate
    partition mu', det(e_(mu'_i - i + j)), with e_d = 0 past the number of
    points.  Neither divides by differences of points, so repeated points
    are legal.

    >>> schur_evaluate((1,), (6, 12, 18, 30))
    66
    >>> schur_evaluate((1, 1), (1, 2))
    2
    >>> schur_evaluate((2,), (1, 2))
    7
    >>> schur_evaluate((2, 0), (3,))
    9
    >>> schur_evaluate((1, 1, 1), (2, 3, 5))
    30
    >>> schur_evaluate((2, 1), (-1, 2, 3))
    10
    >>> from fractions import Fraction
    >>> schur_evaluate((2,), (Fraction(1, 2), 1))
    Traceback (most recent call last):
    TypeError: 'Fraction' object cannot be interpreted as an integer
    """
    if isinstance(mu, Partition):
        parts = mu.parts
    else:
        parts = tuple(mu)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        parts = Partition(parts).parts
    n = len(points)
    if not parts or len(parts) > n:
        for x in points:  # the type check that a cache miss makes
            index(x)
        return 0 if parts else 1
    if parts[0] >= len(parts):
        rows = parts
        seq = _complete_homogeneous(parts[0] + len(parts) - 1, *points)
    else:
        rows = _conjugate(parts)
        seq = _elementary(*points)
    # Entry (i, j) is seq[n + rows[i] - i + j]: the n zeros on either side
    # of the cached sums stand in for h_d and e_d at d < 0 and for e_d
    # past n, as the size is at most len(parts) <= n.
    size = len(rows)
    if size == 1:
        return seq[n + rows[0]]
    if size == 2:
        a, b = n + rows[0], n + rows[1] - 1
        return seq[a] * seq[b + 1] - seq[a + 1] * seq[b]
    if size == 3:
        a, b, c = n + rows[0], n + rows[1] - 1, n + rows[2] - 2
        b0, b1, b2, c0, c1, c2 = seq[b], seq[b + 1], seq[b + 2], seq[c], seq[c + 1], seq[c + 2]
        return (
            seq[a] * (b1 * c2 - b2 * c1)
            - seq[a + 1] * (b0 * c2 - b2 * c0)
            + seq[a + 2] * (b0 * c1 - b1 * c0)
        )
    return _determinant([seq[n + part - i : n + part - i + size] for i, part in enumerate(rows)])


class RowSpace:
    """Incremental exact row space of integer rows, kept sparse.

    A row is a fresh dict {column: int} of its nonzero entries, columns
    in 0..width-1, which add takes over and may change, unchecked (a
    rational or dense row goes through matrix_rank).  While its leading
    column is the pivot of a stored row, it is reduced fraction-free by
    that row, each step touching only the stored row's entries and
    scaling the incoming row only when the stored pivot does not divide
    the entry it clears.  A row that comes out nonzero is stripped of its
    content, which keeps the integers small even for hundreds of rows of
    Schur values, and kept with its leading column as pivot: it holds
    only entries at or after the pivot.

    >>> space = RowSpace(3)
    >>> space.add({0: 2, 2: 4}), space.add({2: -6, 0: -3}), space.rank
    (True, False, 1)
    """

    __slots__ = ("width", "_rows")

    def __init__(self, width):
        self.width = width
        self._rows = {}  # pivot column: {column: int}

    @property
    def rank(self):
        return len(self._rows)

    def add(self, r):
        """Reduce r against the space and keep it if independent; True if the rank grew."""
        rows = self._rows
        heap = list(r)  # r's columns, smallest first; cleared ones are skipped
        heapify(heap)
        while heap:
            pc = heappop(heap)
            if pc not in r:
                continue
            if pc not in rows:
                break
            prow = rows[pc]
            a, b = prow[pc], r[pc]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            if ma != 1:
                r = {c: ma * x for c, x in r.items()}
            for c, y in prow.items():
                if c in r:
                    x = r[c] - mb * y
                    if x:
                        r[c] = x
                    else:
                        del r[c]
                else:
                    r[c] = -mb * y
                    heappush(heap, c)
        if not r:
            return False
        content = gcd(*r.values())
        if r[pc] < 0:
            content = -content
        if content != 1:
            r = {c: x // content for c, x in r.items()}
        rows[pc] = r
        return True


class RationalMatrix:
    """A dense, immutable matrix of Fractions, built from rows of int or
    Fraction entries; any other entry, a float or a str, raises
    TypeError."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, rows):
        entries = tuple(map(_fraction, rows))
        if not entries:
            raise ValueError("matrix needs at least one row")
        ncols = len(entries[0])
        if any(len(row) != ncols for row in entries):
            raise ValueError("ragged rows")
        self.nrows = len(entries)
        self.ncols = ncols
        self.entries = entries

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        # The sums are Fractions already, so the product skips __init__.
        product = object.__new__(RationalMatrix)
        product.nrows, product.ncols = self.nrows, other.ncols
        product.entries = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.entries
        )
        return product

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RationalMatrix(%d x %d)" % (self.nrows, self.ncols)


def matrix_rank(matrix):
    """Exact rank of a RationalMatrix or an iterable of int or Fraction rows,
    each scaled by the lcm of its denominators to integers for a RowSpace:
    0 for no rows, TypeError for a float or str entry and ValueError for a
    row of another width."""
    rows = matrix.entries if isinstance(matrix, RationalMatrix) else [list(r) for r in matrix]
    if not rows:
        return 0
    space = RowSpace(len(rows[0]))
    for row in rows:
        if len(row) != space.width:
            raise ValueError("row width %d, expected %d" % (len(row), space.width))
        try:
            dens = [x.denominator for x in row]
        except AttributeError:
            bad = type(next(x for x in row if not hasattr(x, "denominator")))
            raise TypeError("expected int or Fraction entries, got %s" % bad.__name__) from None
        den = lcm(*dens)
        space.add({c: x.numerator * (den // d) for c, (x, d) in enumerate(zip(row, dens)) if x})
    return space.rank


def jordan_type(matrix):
    """Jordan type of a nilpotent matrix as a Partition of block sizes.

    The number of blocks of size at least s is rank(N^(s-1)) - rank(N^s),
    so these rank drops are the conjugate of the Jordan type.  Raises
    NotNilpotent when N^dim is still nonzero.

    >>> jordan_type([[0, 1], [0, 0]])
    Partition((2,))
    """
    m = matrix if isinstance(matrix, RationalMatrix) else RationalMatrix(matrix)
    if m.nrows != m.ncols:
        raise ValueError("matrix must be square")
    n = m.nrows
    ranks = [n]
    power = m
    for _ in range(n):
        r = matrix_rank(power)
        ranks.append(r)
        if r == 0:
            break
        power = power.mul(m)
    if ranks[-1] != 0:
        raise NotNilpotent("rank of the %d-th power is still %d" % (len(ranks) - 1, ranks[-1]))
    return Partition(_conjugate(tuple(a - b for a, b in zip(ranks, ranks[1:]))))


class IntegerPolynomial:
    """Dense integer-coefficient polynomial; coefficient i sits on q^i.

    The zero polynomial stores an empty tuple, so a nonzero leading
    coefficient is automatic.

    >>> IntegerPolynomial([1, 1, 2, 1, 1, 0]).coeffs
    (1, 1, 2, 1, 1)
    >>> IntegerPolynomial([1, 1])(3)
    4
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def coefficient_list(self):
        return list(self.coeffs) if self.coeffs else [0]

    def __call__(self, x):
        """The value at an int; any other argument, a Fraction or a float,
        raises TypeError."""
        x = index(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, IntegerPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, IntegerPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntegerPolynomial(out)

    def __neg__(self):
        return IntegerPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, IntegerPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, IntegerPolynomial):
            other = index(other)
            return IntegerPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntegerPolynomial(out)

    __rmul__ = __mul__

    def interleave_zero(self):
        """Substitute q = t^2: spread coefficients onto even exponents."""
        out = [0] * (2 * len(self.coeffs) - 1)
        out[::2] = self.coeffs
        return IntegerPolynomial(out)

    def __str__(self):
        return self.str_with_variable("q")

    def str_with_variable(self, var):
        return _terms_str(enumerate(self.coeffs), var)

    def __repr__(self):
        return "IntegerPolynomial(%r)" % (self.coeffs,)


def _prime_divisors(n):
    # the distinct primes dividing n >= 1, ascending, by trial division
    primes, m, f = [], n, 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)
    return primes


def _binomial_quotient(rr, times, over):
    # rr (highest degree first) times q^e - 1 for each e in times, then
    # over q^e - 1 for each e in over, as a new list; None at the first
    # division with a remainder, which, after all the multiplications, is
    # exactly when the whole quotient is not a polynomial.  Dividing by
    # q^e - 1 is a running sum with stride e whose last e sums are the
    # remainder.  With n = len(rr) it is one accumulate for e = 1, one per
    # residue class mod e (e steps) while e * e <= n, and for larger e
    # ceil(n / e) - 1 block steps, each adding the block of sums before it
    # (the last block may be short).  The caller's list is never written,
    # so a failed division leaves it as it was.
    for e in times:
        rr = list(map(sub, rr + [0] * e, [0] * e + rr))
    for e in over:
        n = len(rr)
        if e == 1:
            rr = list(accumulate(rr))
        elif e * e <= n:
            rr = rr[:]
            for c in range(e):
                rr[c::e] = accumulate(rr[c::e])
        else:
            out = rr[:e]
            for i in range(e, n, e):
                out += map(add, rr[i : i + e], out[i - e : i])
            rr = out
        if any(rr[-e:]):
            return None
        del rr[-e:]
    return rr


@lru_cache(maxsize=4096)
def _cyclotomic_binomials(d):
    """(num, den, Phi_d(2)): Phi_d is the Moebius product of (q^e - 1)^mu(d/e)
    over e | d, the binomials of num over those of den.  Only squarefree
    d/e count, one per set of distinct primes of d.

    >>> [_cyclotomic_binomials(d) for d in (1, 2, 6)]
    [((1,), (), 1), ((2,), (1,), 3), ((6, 1), (3, 2), 3)]
    """
    num, den = [], []
    primes = _prime_divisors(d)
    for r in range(len(primes) + 1):
        (den if r % 2 else num).extend(d // prod(c) for c in combinations(primes, r))
    value = prod((1 << e) - 1 for e in num) // prod((1 << e) - 1 for e in den)
    return tuple(num), tuple(den), value


@lru_cache(maxsize=64)
def _cyclotomic_candidates(bound):
    """(d, phi(d)) for every d with phi(d) <= bound, d ascending: the
    inverse totient, by depth-first search over prime powers.  A prime p
    dividing d contributes the factor p - 1 to phi(d), so only the primes
    p <= bound + 1 can occur.

    >>> [d for d, _ in _cyclotomic_candidates(4)]
    [1, 2, 3, 4, 5, 6, 8, 10, 12]
    """
    if bound < 1:
        return ()
    primes = [p for p in range(2, bound + 2) if _prime_divisors(p) == [p]]
    found = []
    stack = [(0, 1, 1)]  # (index of the least prime still allowed, d, phi(d))
    while stack:
        start, d, phi = stack.pop()
        found.append((d, phi))
        for i in range(start, len(primes)):
            p = primes[i]
            power, phi_power = p, phi * (p - 1)
            if phi_power > bound:
                break
            while phi_power <= bound:
                stack.append((i + 1, d * power, phi_power))
                power, phi_power = power * p, phi_power * p
    found.sort()
    return tuple(found)


def strip_cyclotomic_factors(poly):
    """Divide out the power of q and every cyclotomic factor, in one sweep.

    Returns (is_cyclotomic_product, residual).  The flag is True exactly when
    the residual is constant, i.e. the input was, up to a constant, a product
    of q-powers and cyclotomic polynomials, so all of its roots are zero or
    roots of unity.

    The power of q comes off once: every Phi_d has constant term +-1, so no
    later division makes the constant term zero again.  A dividing Phi_d
    has phi(d) <= deg, so the only d tried are those of
    _cyclotomic_candidates(deg), ascending; since phi(d) >= sqrt(d/2) they
    all satisfy d <= 2 deg^2.  deg is read afresh after each division, so
    candidates with phi(d) > deg are skipped and the sweep stops past
    2 deg^2 as factors go.  Phi_d is monic and irreducible, so once it no
    longer divides no later division brings it back.

    Before any division, q = 2 filters: Phi_d | p in Z[q] forces
    Phi_d(2) | p(2) in Z.  A candidate that passes is divided out again
    and again while the filter passes and the division is exact; a false
    positive meets an inexact division, which leaves the coefficients as
    they were.  Phi_d is never built: each division multiplies by the
    binomials q^e - 1 below it in its Moebius product and divides by
    those above (_binomial_quotient); the same product gives Phi_d(2).
    Dividing n coefficients by q^e - 1 is a running sum with stride e:
    one prefix sum for e = 1, one per residue class mod e while
    e * e <= n, and for larger e, such as the q^55 - 1 of Phi_55 on a
    degree-80 input, block by block in ceil(n / e) - 1 steps.
    For d = 2m, m odd, Phi_d(q) = Phi_m(-q) and Phi_2(q) = -Phi_1(-q): the
    odd-degree coefficients are negated, Phi_m, with half the binomials,
    is divided out, and the signs go back, one more per Phi_1.  The
    filter still reads Phi_d(2) = Phi_m(-2), so it passes as before.

    >>> ok, res = strip_cyclotomic_factors(IntegerPolynomial([1, 1, 2, 1, 1]))
    >>> ok, res.coeffs
    (True, (1,))
    """
    p = poly if isinstance(poly, IntegerPolynomial) else IntegerPolynomial(poly)
    if p.is_zero():
        raise ValueError("the zero polynomial has no factor decomposition")
    low = next(i for i, c in enumerate(p.coeffs) if c != 0)
    rr = list(reversed(p.coeffs[low:]))  # highest degree first
    at_two = p(2) >> low  # exact: q^low divides p
    for d, phi in _cyclotomic_candidates(len(rr) - 1):
        degree = len(rr) - 1
        if d > 2 * degree ** 2:
            break
        if phi > degree:
            continue
        num, den, factor_at_two = _cyclotomic_binomials(d)
        if at_two % factor_at_two:
            continue
        if d % 4 == 2:  # work on p(-q) and divide by Phi_{d/2}
            rr[-2::-2] = map(neg, rr[-2::-2])
            num, den, _ = _cyclotomic_binomials(d // 2)
        divisions = 0
        while at_two % factor_at_two == 0:
            quotient = _binomial_quotient(rr, den, num)
            if quotient is None:
                break
            rr = quotient
            at_two //= factor_at_two
            divisions += 1
        if d % 4 == 2:  # back to q, times (-1)^divisions when d = 2
            start = -1 if d == 2 and divisions % 2 else -2
            rr[start::-2] = map(neg, rr[start::-2])
    return len(rr) <= 1, IntegerPolynomial(reversed(rr))


def _power_str(var, e):
    # 'x' or 'x^e'
    return var if e == 1 else "%s^%d" % (var, e)


def _terms_str(pairs, var):
    # (exponent, coefficient) pairs in the order given, zero coefficients
    # skipped, as 'c', 'x', '-x^e' or 'c*x^e' joined by ' + '; '0' for none
    return " + ".join(
        str(c) if e == 0
        else ("" if c == 1 else "-" if c == -1 else str(c) + "*") + _power_str(var, e)
        for e, c in pairs
        if c
    ) or "0"


class MultiPoly:
    """Polynomial with integer coefficients over a fixed ordered tuple of
    distinct named variables.  Terms, a dict, map exponent tuples to
    nonzero coefficients, each read through operator.index like a scalar,
    so a Fraction, a float or a str raises TypeError.

    `terms` is never mutated after construction: every operation builds a
    new MultiPoly.  Equality and the hash are by value.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        nv = len(self.variables)
        if len(set(self.variables)) != nv:
            raise ValueError("repeated variable name in %r" % (self.variables,))
        if terms is not None and not isinstance(terms, dict):
            raise TypeError("terms must be a dict, got %s" % type(terms).__name__)
        clean = {}
        for exps, c in (terms or {}).items():
            c = index(c)
            if c == 0:
                continue
            exps = tuple(map(index, exps))
            if len(exps) != nv or min(exps, default=0) < 0:
                raise ValueError("bad exponent vector %r" % (exps,))
            clean[exps] = c
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def _check_same_ring(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials live over different variables")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.variables, out)

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_same_ring(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = index(c)
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def substitute(self, name, value):
        """Replace one variable by an integer, or by a MultiPoly over the
        other variables in their order, and drop it.  A name that is not
        a variable raises ValueError.

        >>> p = MultiPoly(("x", "y"), {(2, 0): 1, (0, 1): 3})
        >>> p.substitute("y", 2).canonical_str()
        '1*x^2 + 6'
        >>> p.substitute("x", MultiPoly(("y",), {(1,): 1})).canonical_str()
        '1*y^2 + 3*y'
        """
        if name not in self.variables:
            raise ValueError("no variable %r in %r" % (name, self.variables))
        idx = self.variables.index(name)
        rest = self.variables[:idx] + self.variables[idx + 1 :]
        if not isinstance(value, MultiPoly):
            value = MultiPoly(rest, {(0,) * len(rest): value})
        by_power = {}
        for exps, c in self.terms.items():
            by_power.setdefault(exps[idx], {})[exps[:idx] + exps[idx + 1 :]] = c
        # Horner's rule in the dropped variable, highest power first
        out = MultiPoly(rest)
        for a in range(max(by_power, default=0), -1, -1):
            out = out * value + MultiPoly(rest, by_power.get(a))
        return out

    def homogeneous_degree(self, degrees):
        """The common weighted degree of the terms, or None when mixed.
        The zero polynomial reports 0."""
        found = {sum(e * d for e, d in zip(exps, degrees)) for exps in self.terms} or {0}
        return found.pop() if len(found) == 1 else None

    def canonical_str(self):
        """Deterministic rendering: descending graded lexicographic term
        order, every coefficient printed, e.g. '-1*w_1_1*w_4_2'."""
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        return " + ".join(
            "*".join(
                [str(self.terms[exps])]
                + [_power_str(name, e) for name, e in zip(self.variables, exps) if e]
            )
            for exps in keys
        ) or "0"

    def __repr__(self):
        return "MultiPoly(%s)" % self.canonical_str()

