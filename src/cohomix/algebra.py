"""Exact arithmetic kernels.

Partitions, Schur polynomial evaluation, fraction-free rank computation,
Jordan types of nilpotent matrices, cyclotomic factor stripping, and two
small polynomial containers.  All arithmetic is over the rationals using
fractions.Fraction; nothing in this package touches floating point.
"""

from fractions import Fraction
from math import gcd

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
        parts = tuple(int(p) for p in parts)
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

    def emit(remaining, cap, slots, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if slots == 0:
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            emit(remaining - part, part, slots - 1, prefix)
            prefix.pop()

    emit(size, max_part, max_parts, [])
    return out


def _complete_homogeneous(points, top):
    # h_0..h_top at the points; one-variable-at-a-time recurrence keeps this
    # O(len(points) * top) Fraction operations.
    h = [Fraction(0)] * (top + 1)
    h[0] = Fraction(1)
    for x in points:
        x = Fraction(x)
        for m in range(1, top + 1):
            h[m] += x * h[m - 1]
    return h


def _determinant(rows):
    # Fraction Gaussian elimination; fine for the small Jacobi-Trudi blocks.
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] / m[c][c]
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return det


def schur_evaluate(mu, points):
    """Value of the Schur polynomial s_mu at the given points, as a Fraction.

    Jacobi-Trudi in the complete homogeneous sums, so repeated points are
    legal.  More parts than points gives zero; the empty partition gives one.

    >>> schur_evaluate((1,), (6, 12, 18, 30))
    Fraction(66, 1)
    >>> schur_evaluate((1, 1), (1, 2))
    Fraction(2, 1)
    >>> schur_evaluate((2,), (1, 2))
    Fraction(7, 1)
    """
    parts = tuple(mu)
    if not parts:
        return Fraction(1)
    if len(parts) > len(points):
        return Fraction(0)
    ell = len(parts)
    h = _complete_homogeneous(points, parts[0] + ell)

    def entry(i, j):
        d = parts[i] - (i + 1) + (j + 1)
        return h[d] if d >= 0 else Fraction(0)

    return _determinant([[entry(i, j) for j in range(ell)] for i in range(ell)])


class RowSpace:
    """Incremental exact row space over the rationals.

    Each added row is cleared to integers, reduced fraction-free against the
    stored echelon rows, and stripped of its content, which keeps the
    integers small even for hundreds of rows of Schur values.
    """

    __slots__ = ("width", "_rows")

    def __init__(self, width):
        self.width = width
        self._rows = []  # (pivot column, integer row), sorted by pivot

    @property
    def rank(self):
        return len(self._rows)

    def add(self, row):
        """Reduce `row` against the space; keep it if independent.

        Returns True when the rank grew.
        """
        if len(row) != self.width:
            raise ValueError("row width %d, expected %d" % (len(row), self.width))
        den = 1
        fracs = [Fraction(x) for x in row]
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        r = [int(f * den) for f in fracs]
        for pc, prow in self._rows:
            if r[pc] != 0:
                a, b = prow[pc], r[pc]
                g = gcd(a, b)
                ma, mb = a // g, b // g
                r = [ma * x - mb * y for x, y in zip(r, prow)]
        content = 0
        for x in r:
            content = gcd(content, x)
        if content == 0:
            return False
        r = [x // content for x in r]
        pc = next(i for i, x in enumerate(r) if x != 0)
        if r[pc] < 0:
            r = [-x for x in r]
        self._rows.append((pc, r))
        self._rows.sort(key=lambda t: t[0])
        return True


class RationalMatrix:
    """A dense, immutable matrix of Fractions."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, rows):
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
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
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

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
    """Exact rank of a RationalMatrix or an iterable of rows."""
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
        cs = [int(c) for c in coeffs]
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
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
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
        integers; raises NotPolynomial otherwise."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return IntegerPolynomial()
        if other.degree > self.degree:
            raise NotPolynomial("degree %d does not divide degree %d" % (other.degree, self.degree))
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        q = [0] * (len(rem) - len(other.coeffs) + 1)
        for top in range(len(rem) - 1, len(other.coeffs) - 2, -1):
            c = rem[top]
            if c == 0:
                continue
            if c % lead != 0:
                raise NotPolynomial("quotient is not an integer polynomial")
            f = c // lead
            shift = top - (len(other.coeffs) - 1)
            q[shift] = f
            for i, b in enumerate(other.coeffs):
                rem[shift + i] -= f * b
        if any(rem):
            raise NotPolynomial("nonzero remainder")
        return IntegerPolynomial(q)

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
        if self.is_zero():
            return "0"
        pieces = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                pieces.append(str(c))
            elif e == 1:
                pieces.append("%s%s" % ("" if c == 1 else "-" if c == -1 else str(c) + "*", var))
            else:
                head = "" if c == 1 else "-" if c == -1 else str(c) + "*"
                pieces.append("%s%s^%d" % (head, var, e))
        return " + ".join(pieces)

    def __repr__(self):
        return "IntegerPolynomial(%r)" % (self.coeffs,)


def euler_phi(n):
    """Euler's totient.

    >>> [euler_phi(d) for d in (1, 2, 3, 4, 12)]
    [1, 1, 2, 2, 4]
    """
    if n < 1:
        raise ValueError("n must be positive")
    result, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            result -= result // f
        f += 1
    if m > 1:
        result -= result // m
    return result


_CYCLOTOMIC_CACHE = {}


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
    cached = _CYCLOTOMIC_CACHE.get(d)
    if cached is not None:
        return cached
    p = IntegerPolynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_divide(cyclotomic_polynomial(e))
    _CYCLOTOMIC_CACHE[d] = p
    return p


def strip_cyclotomic_factors(poly):
    """Divide out every power of q and every cyclotomic factor, repeatedly.

    Returns (is_cyclotomic_product, residual).  The flag is True exactly when
    the residual is constant, i.e. the input was, up to a constant, a product
    of q-powers and cyclotomic polynomials, so all of its roots are zero or
    roots of unity.  Only d with phi(d) <= deg can divide, and
    phi(d) >= sqrt(d/2) bounds the candidates by d <= 2 deg^2.

    >>> ok, res = strip_cyclotomic_factors(IntegerPolynomial([1, 1, 2, 1, 1]))
    >>> ok, res.coeffs
    (True, (1,))
    """
    p = poly if isinstance(poly, IntegerPolynomial) else IntegerPolynomial(poly)
    if p.is_zero():
        raise ValueError("the zero polynomial has no factor decomposition")
    changed = True
    while changed and p.degree > 0:
        changed = False
        while p.degree > 0 and p.coefficient(0) == 0:
            p = IntegerPolynomial(p.coeffs[1:])
            changed = True
        bound = 2 * p.degree * p.degree
        for d in range(1, bound + 1):
            if p.degree <= 0:
                break
            if euler_phi(d) > p.degree:
                continue
            while True:
                try:
                    p = p.exact_divide(cyclotomic_polynomial(d))
                except NotPolynomial:
                    break
                changed = True
                if p.degree <= 0:
                    break
    return p.degree <= 0, p


def _coefficient_str(c):
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


class MultiPoly:
    """Polynomial with Fraction coefficients over a fixed ordered tuple of
    named variables.  Terms map exponent tuples to nonzero coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        nv = len(self.variables)
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector %r" % (exps,))
            clean[exps] = c
        self.terms = clean

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    def is_zero(self):
        return not self.terms

    def _check_same_ring(self, other):
        if self.variables != other.variables:
            raise ValueError("polynomials live over different variables")

    def __add__(self, other):
        self._check_same_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.variables, out)

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
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
        c = Fraction(c)
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def substitute(self, name, value):
        """Evaluate one variable at a rational constant and drop it."""
        idx = self.variables.index(name)
        value = Fraction(value)
        rest = self.variables[:idx] + self.variables[idx + 1 :]
        out = {}
        for exps, c in self.terms.items():
            factor = value ** exps[idx]
            if factor == 0:
                continue
            key = exps[:idx] + exps[idx + 1 :]
            out[key] = out.get(key, Fraction(0)) + c * factor
        return MultiPoly(rest, out)

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
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        rendered = []
        for exps in keys:
            factors = [_coefficient_str(self.terms[exps])]
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            rendered.append("*".join(factors))
        return " + ".join(rendered)

    def __repr__(self):
        return "MultiPoly(%s)" % self.canonical_str()

