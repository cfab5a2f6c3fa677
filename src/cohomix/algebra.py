"""Exact arithmetic kernels.

Partitions, Schur polynomial evaluation, fraction-free rank computation,
Jordan types of nilpotent matrices, cyclotomic factor stripping, and two
small polynomial containers.  The kernel is integer: Schur values are
small integer determinants and RowSpace reduces sparse integer rows,
each a dict of its nonzero entries.  fractions.Fraction appears only at
the API edge, for rational points and rows, which are scaled to integers
once on the way in.  Nothing in this package touches floating point: a
float point, row or matrix entry, or polynomial coefficient, value or
scalar, raises TypeError.
"""

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import index

from .errors import NotNilpotent, NotPolynomial


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
        """Inverse of str: '2,1' -> Partition((2, 1)), '' -> Partition(())."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(p) for p in text.split(",")))


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


def _common_denominator(values):
    # The lcm of the denominators of ints and Fractions; TypeError for
    # anything else, floats included.
    try:
        return lcm(*[x.denominator for x in values])
    except AttributeError:
        bad = next(x for x in values if not hasattr(x, "denominator"))
        raise TypeError("expected int or Fraction entries, got %s" % type(bad).__name__) from None


def _fraction(c):
    # The one gate for a rational coefficient, value or scalar: an int or
    # a Fraction comes back as a Fraction; anything else, a float, a str
    # or a Decimal included, raises TypeError.
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise TypeError("expected an int or Fraction, got %s" % type(c).__name__)


def _clear_denominators(values):
    # (D, [D * x for x in values]) with D the common denominator: the
    # integer form of a point or a relation's coefficients.
    den = _common_denominator(values)
    return den, [x.numerator * (den // x.denominator) for x in values]


@lru_cache(maxsize=4096, typed=True)
def _complete_homogeneous(top, *points):
    # (D, h_0..h_top at D * points), the sums padded with len(points) zeros
    # on each side.  The one-variable-at-a-time recurrence keeps this
    # O(len(points) * top) integer operations.  Cached results are shared
    # between calls, hence the tuple.  Each point is an argument of its own,
    # so the cache is keyed by its type too and a float always misses.
    den, ints = _clear_denominators(points)
    h = [1] + [0] * top
    for x in ints:
        for m in range(1, top + 1):
            h[m] += x * h[m - 1]
    pad = [0] * len(points)
    return den, tuple(pad + h + pad)


@lru_cache(maxsize=4096, typed=True)
def _elementary(*points):
    # (D, e_0..e_len(points) at D * points), padded as above: the same
    # recurrence, run downwards so that each e_(m-1) is read before it
    # takes in x.
    den, ints = _clear_denominators(points)
    e = [1] + [0] * len(ints)
    for n, x in enumerate(ints, 1):
        for m in range(n, 0, -1):
            e[m] += x * e[m - 1]
    pad = [0] * len(points)
    return den, tuple(pad + e + pad)


@lru_cache(maxsize=256)
def _conjugate(parts):
    # Column lengths of the diagram.  Callers evaluate one partition at
    # many points in a row, so a small cache serves them.
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def _determinant(rows):
    # Sizes 2 and 3 by cofactor expansion.  From size 4 on, Bareiss
    # fraction-free elimination (Bareiss 1968): each step divides exactly
    # by the previous pivot, so every entry stays an integer minor.
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
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
    """Value of the Schur polynomial s_mu at int or Fraction points.

    mu is a Partition or a weakly decreasing sequence of nonnegative parts;
    trailing zero parts are dropped, and any other sequence raises
    ValueError.  More parts than points gives zero; the empty partition
    gives one.  The value is an int when the points are integers.  Rational
    points are scaled by the lcm D of their denominators, and homogeneity
    gives s_mu(points) = s_mu(D * points) / D^|mu| as a Fraction.  A point
    that is neither raises TypeError, whatever the cache holds.

    Each call is one lookup in a bounded cache, keyed by the points and
    their types as given, plus one small determinant.  A miss scales the
    points to integers, computes their complete homogeneous or elementary
    sums and pads them with zeros, so evaluating every partition of a box
    at the same point does that work once.  The determinant has size
    min(len(mu), mu_1), in closed form up to size 3: when
    mu_1 >= len(mu) it is Jacobi-Trudi in the complete homogeneous sums,
    det(h_(mu_i - i + j)); otherwise it is the dual Jacobi-Trudi
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
    >>> from fractions import Fraction
    >>> schur_evaluate((2,), (Fraction(1, 2), 1))
    Fraction(7, 4)
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
        _common_denominator(points)  # the type check that a cache miss makes
        return 0 if parts else 1
    if parts[0] >= len(parts):
        rows = parts
        den, seq = _complete_homogeneous(parts[0] + len(parts) - 1, *points)
    else:
        rows = _conjugate(parts)
        den, seq = _elementary(*points)
    # Entry (i, j) is seq[n + rows[i] - i + j]: the n zeros on either side
    # of the cached sums stand in for h_d and e_d at d < 0 and for e_d
    # past n, as the size is at most len(parts) <= n.
    size = len(rows)
    if size == 1:
        value = seq[n + rows[0]]
    else:
        value = _determinant([seq[n + part - i : n + part - i + size] for i, part in enumerate(rows)])
    return value if den == 1 else Fraction(value, den ** sum(parts))


class RowSpace:
    """Incremental exact row space of int or Fraction rows, kept sparse.

    A row is a sequence of `width` entries or a mapping {column: entry}.
    Each added row is cleared to integers once, from the numerators and
    denominators of its entries, and held as a dict {column: int} of its
    nonzero entries.  While its leading column is the pivot of a stored
    row, it is reduced fraction-free by that row, each step touching
    only the stored row's entries and scaling the incoming row only when
    the stored pivot does not divide the entry it clears.  A row that
    comes out nonzero is stripped of its content, which keeps the
    integers small even for hundreds of rows of Schur values, and kept
    with its leading column as pivot: it holds only entries at or after
    the pivot.
    """

    __slots__ = ("width", "_rows")

    def __init__(self, width):
        self.width = width
        self._rows = {}  # pivot column: {column: int}

    @property
    def rank(self):
        return len(self._rows)

    def add(self, row):
        """Reduce `row` against the space; keep it if independent.

        Returns True when the rank grew.
        """
        if isinstance(row, Mapping):
            if not all(map(range(self.width).__contains__, row)):
                raise ValueError("row columns must lie in 0..%d" % (self.width - 1))
            items = row.items()
            den = _common_denominator(row.values())
        elif len(row) != self.width:
            raise ValueError("row width %d, expected %d" % (len(row), self.width))
        else:
            items = enumerate(row)
            den = _common_denominator(row)
        r = {c: x.numerator * (den // x.denominator) for c, x in items if x}
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
        entries = tuple(tuple(map(_fraction, row)) for row in rows)
        if not entries:
            raise ValueError("matrix needs at least one row")
        ncols = len(entries[0])
        if any(len(row) != ncols for row in entries):
            raise ValueError("ragged rows")
        self.nrows = len(entries)
        self.ncols = ncols
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.entries[i][j]

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

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RationalMatrix(%d x %d)" % (self.nrows, self.ncols)


def matrix_rank(matrix):
    """Exact rank of a RationalMatrix or an iterable of int or Fraction rows."""
    rows = matrix.entries if isinstance(matrix, RationalMatrix) else [list(r) for r in matrix]
    rows = list(rows)
    if not rows:
        return 0
    space = RowSpace(len(rows[0]))
    for row in rows:
        space.add(row)
    return space.rank


def jordan_type(matrix):
    """Jordan type of a nilpotent matrix as a Partition of block sizes.

    The number of blocks of size at least s is rank(N^(s-1)) - rank(N^s).
    Raises NotNilpotent when N^dim is still nonzero.

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
    blocks_ge = [ranks[s - 1] - ranks[s] for s in range(1, len(ranks))]
    parts = []
    for s in range(len(blocks_ge), 0, -1):
        count = blocks_ge[s - 1] - (blocks_ge[s] if s < len(blocks_ge) else 0)
        parts.extend([s] * count)
    parts.sort(reverse=True)
    return Partition(tuple(parts))


def _exact_quotient(coeffs, divisor):
    # The quotient coefficients of coeffs / divisor (constant term first,
    # divisor[-1] nonzero) when the division is exact over the integers,
    # else None.  One pass over a copy of coeffs, top down: each quotient
    # coefficient overwrites the entry it comes from, and only the
    # divisor's nonzero lower terms are subtracted below it, so what is
    # left under the quotient is the remainder.  A leading +-1 divides
    # without divmod.
    m = len(divisor) - 1
    lead = divisor[m]
    lower = [(i - m, b) for i, b in enumerate(divisor[:m]) if b]
    rem = list(coeffs)
    for top in range(len(rem) - 1, m - 1, -1):
        f = rem[top]
        if not f:
            continue
        if lead != 1:
            if lead == -1:
                f = -f
            else:
                f, r = divmod(f, lead)
                if r:
                    return None
            rem[top] = f
        for offset, b in lower:
            rem[top + offset] -= f * b
    if any(rem[:m]):
        return None
    return rem[m:]


class IntegerPolynomial:
    """Dense integer-coefficient polynomial; coefficient i sits on q^i.

    The zero polynomial stores an empty tuple, so a nonzero leading
    coefficient is automatic.

    >>> IntegerPolynomial([1, 1, 2, 1, 1]).degree
    4
    >>> IntegerPolynomial([1, 1])(3)
    4
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, coeff, exponent):
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * exponent + [coeff])

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def coefficient_list(self):
        return list(self.coeffs) if self.coeffs else [0]

    def __call__(self, x):
        """The value at an int or a Fraction, of the same type; any other
        argument, a float included, raises TypeError."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError("expected an int or Fraction, got %s" % type(x).__name__)
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
        if self.is_zero() or other.is_zero():
            return IntegerPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntegerPolynomial(out)

    __rmul__ = __mul__

    def exact_divide(self, other):
        """Quotient self / other when the division is exact over the
        integers; the divisor need not be monic.  Raises NotPolynomial for
        an inexact division or a divisor of larger degree, and
        ZeroDivisionError for the zero divisor.  One pass of
        _exact_quotient: only the divisor's nonzero lower terms are
        subtracted."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return IntegerPolynomial()
        if other.degree > self.degree:
            raise NotPolynomial("degree %d does not divide degree %d" % (other.degree, self.degree))
        quotient = _exact_quotient(self.coeffs, other.coeffs)
        if quotient is None:
            raise NotPolynomial("quotient is not an integer polynomial")
        return IntegerPolynomial(quotient)

    def interleave_zero(self):
        """Substitute q = t^2: spread coefficients onto even exponents."""
        if self.is_zero():
            return IntegerPolynomial()
        out = [0] * (2 * len(self.coeffs) - 1)
        out[::2] = self.coeffs
        return IntegerPolynomial(out)

    def __str__(self):
        return self.str_with_variable("q")

    def str_with_variable(self, var):
        return _terms_str(enumerate(self.coeffs), var)

    def __repr__(self):
        return "IntegerPolynomial(%r)" % (self.coeffs,)


def euler_phi(n):
    """Euler's totient.

    >>> [euler_phi(d) for d in (1, 2, 3, 4, 12)]
    [1, 1, 2, 2, 4]
    """
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


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


@lru_cache(maxsize=4096)
def cyclotomic_polynomial(d):
    """The d-th cyclotomic polynomial, by exact division of q^d - 1 by all
    lower cyclotomic factors.

    >>> cyclotomic_polynomial(1).coeffs
    (-1, 1)
    >>> cyclotomic_polynomial(6).coeffs
    (1, -1, 1)
    """
    if d < 1:
        raise ValueError("d must be positive")
    cs = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            cs = _exact_quotient(cs, cyclotomic_polynomial(e).coeffs)
    return IntegerPolynomial(cs)


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
    sieve = bytearray([1]) * (bound + 2)
    primes = []
    for p in range(2, bound + 2):
        if sieve[p]:
            primes.append(p)
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 2, p)))
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


@lru_cache(maxsize=4096)
def _cyclotomic_at_two(d):
    """Phi_d(2), by the Moebius product of (2^e - 1)^mu(d/e) over the
    divisors e of d; only squarefree d/e count, one per set of distinct
    prime factors of d.

    >>> [_cyclotomic_at_two(d) for d in (1, 2, 3, 4, 6, 12)]
    [1, 3, 7, 5, 3, 13]
    """
    primes = _prime_divisors(d)
    num = den = 1
    for mask in range(1 << len(primes)):
        e, odd = d, False
        for i, p in enumerate(primes):
            if mask >> i & 1:
                e //= p
                odd = not odd
        if odd:
            den *= (1 << e) - 1
        else:
            num *= (1 << e) - 1
    return num // den


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
    Phi_d(2) | p(2) in Z, and Phi_d(2) comes from the Moebius product
    without building Phi_d.  Only a candidate that passes has the
    coefficients of cyclotomic_polynomial(d) read, once, and divided out,
    again and again while the filter passes and the division is exact; a
    q = 2 false positive just meets an inexact division.  The sweep works
    on a plain coefficient list: each division is one in-place pass of
    _exact_quotient over the nonzero lower terms of the monic Phi_d, and
    the residual becomes an IntegerPolynomial only at the end.

    >>> ok, res = strip_cyclotomic_factors(IntegerPolynomial([1, 1, 2, 1, 1]))
    >>> ok, res.coeffs
    (True, (1,))
    """
    p = poly if isinstance(poly, IntegerPolynomial) else IntegerPolynomial(poly)
    if p.is_zero():
        raise ValueError("the zero polynomial has no factor decomposition")
    low = next(i for i, c in enumerate(p.coeffs) if c != 0)
    cs = p.coeffs[low:]
    at_two = p(2) >> low  # exact: q^low divides p
    for d, phi in _cyclotomic_candidates(len(cs) - 1):
        degree = len(cs) - 1
        if d > 2 * degree ** 2:
            break
        if phi > degree:
            continue
        factor_at_two = _cyclotomic_at_two(d)
        if at_two % factor_at_two:
            continue
        divisor = cyclotomic_polynomial(d).coeffs
        while at_two % factor_at_two == 0:
            quotient = _exact_quotient(cs, divisor)
            if quotient is None:
                break
            cs = quotient
            at_two //= factor_at_two
    return len(cs) <= 1, IntegerPolynomial(cs)


def coefficient_str(c):
    """An int or Fraction coefficient as 'n' or 'n/d'."""
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _power_str(var, e):
    # 'x' or 'x^e'
    return var if e == 1 else "%s^%d" % (var, e)


def _terms_str(pairs, var):
    # (exponent, coefficient) pairs in the order given, zero coefficients
    # skipped, as 'c', 'x', '-x^e' or 'c*x^e' joined by ' + '; '0' for none
    return " + ".join(
        coefficient_str(c) if e == 0
        else ("" if c == 1 else "-" if c == -1 else coefficient_str(c) + "*") + _power_str(var, e)
        for e, c in pairs
        if c
    ) or "0"


class MultiPoly:
    """Polynomial with Fraction coefficients over a fixed ordered tuple of
    distinct named variables.  Terms map exponent tuples to nonzero
    coefficients.  A coefficient or scalar is an int or a Fraction; any
    other, a float or a str, raises TypeError.

    `terms` is never mutated after construction: every operation builds a
    new MultiPoly.  Equality and the hash are by value.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        nv = len(self.variables)
        if len(set(self.variables)) != nv:
            raise ValueError("repeated variable name in %r" % (self.variables,))
        clean = {}
        for exps, c in (terms or {}).items():
            c = _fraction(c)
            if c == 0:
                continue
            exps = tuple(map(index, exps))
            if len(exps) != nv or any(e < 0 for e in exps):
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
            out[e] = out.get(e, Fraction(0)) + c
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
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.variables, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _fraction(c)
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def substitute(self, name, value):
        """Replace one variable by a rational constant, or by a MultiPoly
        over the other variables in their order, and drop it.

        >>> p = MultiPoly(("x", "y"), {(2, 0): 1, (0, 1): 3})
        >>> p.substitute("y", 2).canonical_str()
        '1*x^2 + 6'
        >>> p.substitute("x", MultiPoly(("y",), {(1,): 1})).canonical_str()
        '1*y^2 + 3*y'
        """
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
        if not self.terms:
            return 0
        found = {sum(e * d for e, d in zip(exps, degrees)) for exps in self.terms}
        if len(found) == 1:
            return found.pop()
        return None

    def canonical_str(self):
        """Deterministic rendering: descending graded lexicographic term
        order, every coefficient printed, e.g. '-1*w_1_1*w_4_2'."""
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        return " + ".join(
            "*".join(
                [coefficient_str(self.terms[exps])]
                + [_power_str(name, e) for name, e in zip(self.variables, exps) if e]
            )
            for exps in keys
        ) or "0"

    def __repr__(self):
        return "MultiPoly(%s)" % self.canonical_str()

