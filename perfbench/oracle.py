"""Independent answers that every benchmark job is checked against.

The Gaussian binomial and the Goettsche product come from the test suite's
own oracles (tests/oracles.py), loaded by path and never edited.  The rest
are closed forms or exact certificates written here; none calls cohomix.
"""

import importlib.util
from math import comb, gcd


def load_test_oracles(root):
    """The module tests/oracles.py of the checkout at `root`."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("cohomix_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def jordan_closed_form(k):
    """Jordan type of X_0 -> X_1 -> X_2 -> 0 on degree-k forms.

    As an sl_2-module R_k = Sym^k(Sym^2 C^2) splits as the sum of
    V_(2k-4j) (Cayley-Sylvester, Hermite reciprocity), so the blocks have
    sizes 2k+1, 2k-3, 2k-7, ... while positive.
    """
    return tuple(range(2 * k + 1, 0, -4))


def partial_sums(coeffs, top):
    """Coefficients 0..top of coeffs / (1 - q): the equivariant profile
    H*(Gr)[v] from the ordinary one."""
    out, acc = [], 0
    for d in range(top + 1):
        acc += coeffs[d] if d < len(coeffs) else 0
        out.append(acc)
    return out


def interleave(coeffs):
    """Substitute q = t^2."""
    out = []
    for c in coeffs:
        out.extend((c, 0))
    return out[:-1] if out else [0]


def multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def roots_all_on_unit_circle(coeffs, max_steps=64):
    """Decide, by Graeffe root squaring, whether a nonzero integer
    polynomial is a constant times a power of q times a product of
    cyclotomic polynomials.

    Returns True or False, or None when `max_steps` squarings settle
    nothing.  After removing the content and q-powers the polynomial must
    have leading and constant coefficient +-1.  The Graeffe step maps the
    roots r to r^2.  If every root lies on the unit circle the coefficients
    stay within the binomial bounds C(n, i) and the iterates cycle; then,
    as the constant term is +-1, all roots are roots of unity (Kronecker).
    A coefficient beyond its bound proves a root off the circle.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    while cs[0] == 0:
        cs.pop(0)
    content = 0
    for c in cs:
        content = gcd(content, c)
    cs = [c // content for c in cs]
    n = len(cs) - 1
    if n == 0:
        return True
    if abs(cs[-1]) != 1 or abs(cs[0]) != 1:
        return False
    if cs[-1] < 0:
        cs = [-c for c in cs]
    bounds = [comb(n, i) for i in range(n + 1)]
    seen = set()
    for _ in range(max_steps):
        key = tuple(cs)
        if key in seen:
            return True
        seen.add(key)
        # f(x) f(-x) = (-1)^n g(x^2), where g has the squared roots
        neg = [c if i % 2 == 0 else -c for i, c in enumerate(cs)]
        prod = multiply(cs, neg)
        sign = -1 if n % 2 else 1
        cs = [sign * prod[2 * i] for i in range(n + 1)]
        if any(abs(c) > bound for c, bound in zip(cs, bounds)):
            return False
    return None


def _mobius(n):
    out, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    return -out if n > 1 else out


def cyclotomic(d):
    """Phi_d as a coefficient list, by the Moebius product of (q^e - 1)^mu(d/e)
    over the divisors e of d."""
    num, den = [1], [1]
    for e in range(1, d + 1):
        if d % e == 0:
            m = _mobius(d // e)
            if m:
                factor = [-1] + [0] * (e - 1) + [1]
                if m == 1:
                    num = multiply(num, factor)
                else:
                    den = multiply(den, factor)
    # den is monic, so long division stays in the integers
    rem = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for top in range(len(rem) - 1, len(den) - 2, -1):
        c = rem[top]
        shift = top - (len(den) - 1)
        out[shift] = c
        for i, b in enumerate(den):
            rem[shift + i] -= c * b
    if any(rem):
        raise ArithmeticError("Moebius product for Phi_%d did not divide" % d)
    return out
