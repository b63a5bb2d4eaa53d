"""Exact arithmetic in the two-level tower GF(q^m)/GF(q) with q = p^e.

Elements are plain Python ints.  An element of the base field F = GF(p^e)
is an int in [0, q) whose ascending base-p digits are the coefficients of
its polynomial representative modulo ``base_poly``.  An element of the top
field E = GF(q^m) is an int in [0, q^m) whose ascending base-q digits are
the coefficients modulo ``ext_poly``.  All arithmetic happens on these
internal ints; a custom ordered basis only changes the coordinate maps
(``to_coords`` / ``expand``) and the external serialization integers.
``to_coords`` is memoized per tower: each element's coordinate tuple is
computed once, on first use, so the memo holds at most |E| entries.  It is
not pickled; a tower pickles as its definition and rebuilds the memo.

``tower.F`` and ``tower.E`` are the field engines themselves.  Both share
one additive law: the base-p digits of every element are its coordinates
over GF(p), so addition is XOR when p = 2, one residue mod p when the
field is GF(p), and digit-wise mod p otherwise.  Multiplication uses
log/antilog tables whenever the field order is at most 2^16 and falls
back to schoolbook polynomial arithmetic above that.

Each engine owns its row kernel (``_row_kernel``), built on first use:
XOR over GF(2); for the other levels of order at most 256, GF(p)
included, a cached multiplication-table row per scalar, with XOR to
subtract when p = 2 and a subtraction table when p is odd; larger levels
call the engine's mul and sub.  It is the only place that reads an
engine's add, sub or mul: ``rref``, the package's one Gauss-Jordan
elimination, and ``mat_vec`` run on it, and so do the tower's own
polynomial products and remainders, basis inversion and custom-basis
coordinates.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

_TABLE_LIMIT = 1 << 16


class NonIrreducible(ValueError):
    """A supplied modulus polynomial factors over its coefficient field."""


class BadBasis(ValueError):
    """A supplied basis of E over F is not F-linearly independent."""


def int_to_digits(x: int, base: int, length: int) -> Tuple[int, ...]:
    digits = []
    for _ in range(length):
        x, d = divmod(x, base)
        digits.append(d)
    return tuple(digits)


def digits_to_int(digits: Sequence[int], base: int) -> int:
    x = 0
    for d in reversed(digits):
        x = x * base + d
    return x


# ---------------------------------------------------------------------------
# Field engines.  _PrimeField and _PolyField both expose: p, order, add,
# sub, neg, mul, inv.  _PolyField stacks on any engine below it, so the
# same code builds GF(p^e) over GF(p) and GF(q^m) over GF(q).
# ---------------------------------------------------------------------------


def _additive_law(p: int, order: int):
    """(add, sub, neg) on ints whose base-p digits are GF(p)-coordinates."""
    if p == 2:
        return operator.xor, operator.xor, lambda a: a
    if order == p:
        return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                lambda a: -a % p)

    def digitwise(a: int, b: int, sign: int) -> int:
        out, w = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + sign * y) % p * w
            w *= p
        return out

    return (lambda a, b: digitwise(a, b, 1), lambda a, b: digitwise(a, b, -1),
            lambda a: digitwise(0, a, -1))


class _PrimeField:
    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"p={p} is not prime")
        self.p = self.order = p
        self.add, self.sub, self.neg = _additive_law(p, p)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.order

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.order - 2, self.order)


class _PolyField:
    """GF(s^d) built as subfield[x]/(modulus), elements packed base-s."""

    def __init__(self, subfield, degree: int, modulus: Sequence[int]):
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the stated degree")
        if not all(0 <= c < subfield.order for c in modulus):
            raise ValueError(f"coefficients must lie in [0, {subfield.order})")
        if not _is_irreducible(modulus, subfield):
            raise NonIrreducible(f"polynomial {list(modulus)} factors")
        self.subfield = subfield
        self.degree = degree
        self.base = subfield.order
        self.p = subfield.p
        self.order = subfield.order**degree
        self.add, self.sub, self.neg = _additive_law(self.p, self.order)
        self._modulus = tuple(modulus)
        self._log: Optional[List[int]] = None
        self._exp: Optional[List[int]] = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def _mul_poly(self, a: int, b: int) -> int:
        """a*b on the packed base-s digits: one subfield row op per nonzero
        digit of b, then the remainder by the modulus."""
        s, d = self.subfield, self.degree
        axpy = _row_kernel(s)[1]
        da = int_to_digits(a, self.base, d)
        prod = [0] * (2 * d - 1)
        for j, y in enumerate(int_to_digits(b, self.base, d)):
            if y != 0:
                prod[j:j + d] = axpy(s.neg(y), prod[j:j + d], da)
        return digits_to_int(_poly_mod(prod, self._modulus, s), self.base)

    def _build_tables(self) -> None:
        n = self.order
        g = self._find_generator()
        exp = [1] * (2 * n)
        log = [0] * n
        v = 1
        for i in range(n - 1):
            exp[i] = v
            log[v] = i
            v = self._mul_poly(v, g)
        for i in range(n - 1, 2 * n):
            exp[i] = exp[i - (n - 1)]
        self._exp, self._log = exp, log

    def _find_generator(self) -> int:
        if self.order == 2:
            return 1
        n1 = self.order - 1
        primes = _prime_factors(n1)
        for g in range(2, self.order):
            if all(self._pow_poly(g, n1 // ell) != 1 for ell in primes):
                return g
        raise AssertionError("no multiplicative generator found")

    def _pow_poly(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._mul_poly(r, a)
            a = self._mul_poly(a, a)
            n >>= 1
        return r

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._log is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._log is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        return self._pow_poly(a, self.order - 2)


# A field engine: one level of a tower (``tower.F`` or ``tower.E``).
Field = Union[_PrimeField, _PolyField]


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Row kernels and the one elimination over an arbitrary field level.
# ---------------------------------------------------------------------------

# Levels of at most this order get table-driven row kernels.
_KERNEL_TABLE_LIMIT = 256

RowOp = Callable[..., List[int]]


def _row_kernel(level: Field) -> Tuple[RowOp, RowOp]:
    """(scale, axpy) for rows over ``level``: scale(f, row) = f*row and
    axpy(g, a, b) = a - g*b, both as lists.  Built on first use and kept on
    the engine, so every caller of one level shares its tables."""
    kernel = getattr(level, "_row_kernel", None)
    if kernel is None:
        kernel = level._row_kernel = _build_row_kernel(level)
    return kernel


def _build_row_kernel(level: Field) -> Tuple[RowOp, RowOp]:
    p, order, mul, sub = level.p, level.order, level.mul, level.sub
    if order == 2:
        return (lambda f, row: [f & v for v in row],
                lambda g, a, b: ([v ^ w for v, w in zip(a, b)] if g
                                 else list(a)))
    if order > _KERNEL_TABLE_LIMIT:
        return (lambda f, row: [mul(f, v) for v in row],
                lambda g, a, b: [sub(v, mul(g, w)) for v, w in zip(a, b)])
    mul_rows: Dict[int, List[int]] = {}  # g -> [g*x for every x]

    def mul_row(g: int) -> List[int]:
        t = mul_rows.get(g)
        if t is None:
            t = mul_rows[g] = [mul(g, x) for x in range(order)]
        return t

    def scale(f: int, row: Sequence[int]) -> List[int]:
        t = mul_row(f)
        return [t[v] for v in row]

    if p == 2:
        def axpy(g: int, a: Sequence[int], b: Sequence[int]) -> List[int]:
            t = mul_row(g)
            return [v ^ t[w] for v, w in zip(a, b)]
    else:
        sub_rows = [[sub(x, y) for y in range(order)] for x in range(order)]

        def axpy(g: int, a: Sequence[int], b: Sequence[int]) -> List[int]:
            t = mul_row(g)
            return [sub_rows[v][t[w]] for v, w in zip(a, b)]
    return scale, axpy


def rref(rows: Sequence[Sequence[int]], level: Field,
         ) -> Tuple[Tuple[Tuple[int, ...], ...], int, Tuple[int, ...]]:
    """Reduced row echelon form; returns (rows, rank, pivot columns)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots: List[int] = []
    r = 0
    scale, axpy = _row_kernel(level)
    inv = level.inv
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        f = inv(work[r][c])
        if f != 1:
            work[r] = scale(f, work[r])
        row_r = work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                work[i] = axpy(work[i][c], work[i], row_r)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = tuple(tuple(work[i]) for i in range(r))
    return out, r, tuple(pivots)


def mat_vec(level: Field, rows: Sequence[Sequence[int]],
            vec: Sequence[int]) -> Tuple[int, ...]:
    """vec * rows (row vector times matrix)."""
    if len(vec) != len(rows):
        raise ValueError(f"vector of length {len(vec)} times {len(rows)} rows")
    axpy = _row_kernel(level)[1]
    neg = level.neg
    out = [0] * (len(rows[0]) if rows else 0)
    for c, row in zip(vec, rows):
        if c != 0:
            out = axpy(neg(c), out, row)
    return tuple(out)


# ---------------------------------------------------------------------------
# Polynomial utilities over an arbitrary engine (coefficients = packed ints).
# ---------------------------------------------------------------------------


def _poly_mod(num: Sequence[int], den: Sequence[int], fld) -> Tuple[int, ...]:
    """num modulo the monic polynomial den (coefficients ascending)."""
    axpy = _row_kernel(fld)[1]
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        if num[i] != 0:
            num[i - dd:i + 1] = axpy(num[i], num[i - dd:i + 1], den)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


def _is_irreducible(poly: Sequence[int], fld) -> bool:
    """Exhaustive factor check: no monic divisor of degree 1..deg//2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    q = fld.order
    for d in range(1, deg // 2 + 1):
        for tail in range(q**d):
            cand = list(int_to_digits(tail, q, d)) + [1]
            rem = _poly_mod(poly, cand, fld)
            if rem == (0,):
                return False
    return True


def default_irreducible(fld, degree: int) -> Tuple[int, ...]:
    """Lexicographically smallest monic irreducible, coefficients compared
    low degree first."""
    q = fld.order
    for low in range(q**degree):
        # ascending lex on (c0,...,c_{d-1}): c0 is the most significant digit
        digits = int_to_digits(low, q, degree)
        cand = tuple(reversed(digits)) + (1,)
        if _is_irreducible(cand, fld):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# The tower itself.
# ---------------------------------------------------------------------------


# the spec grammar: p, e and m take one integer each; base, ext and basis
# take the integers up to the next key
_SPEC_KEYS = ("p", "e", "m", "base", "ext", "basis")


class FieldTower:
    """Immutable description of GF(q^m)/GF(q); all ops are pure."""

    def __init__(self, p: int, e: int, m: int,
                 base_poly: Optional[Sequence[int]],
                 ext_poly: Optional[Sequence[int]],
                 basis: Optional[Sequence[int]] = None):
        self.p = p
        self.e = e
        self.m = m
        prime = _PrimeField(p)
        if e == 1:
            if base_poly is not None:
                raise ValueError("base_poly is only given when e > 1")
            self.F = prime
            self.base_poly = None
        else:
            if base_poly is None:
                base_poly = default_irreducible(prime, e)
            self.F = _PolyField(prime, e, base_poly)
            self.base_poly = tuple(base_poly)
        self.q = self.F.order
        if ext_poly is None:
            ext_poly = default_irreducible(self.F, m)
        self.E = _PolyField(self.F, m, ext_poly)
        self.ext_poly = tuple(ext_poly)
        self.order = self.E.order

        default = tuple(self.q**i for i in range(m))  # 1, x, ..., x^(m-1)
        basis = default if basis is None else tuple(basis)
        if len(basis) != m:
            raise BadBasis(f"basis must have {m} elements")
        if not all(0 <= b < self.order for b in basis):
            raise BadBasis(f"basis elements must lie in [0, {self.order})")
        self.basis = basis
        # row j of T = polynomial digits of basis element j, so the digits
        # of x are its coordinates times T; the RREF of [T | I] is
        # [I | T^-1] exactly when T is invertible
        self._basis_matrix = [int_to_digits(b, self.q, m) for b in basis]
        rows, _, pivots = rref([row + tuple(int(i == j) for i in range(m))
                                for j, row in enumerate(self._basis_matrix)],
                               self.F)
        if pivots != tuple(range(m)):
            raise BadBasis("basis is not F-linearly independent")
        self._coord_matrix = [row[m:] for row in rows]
        self._default_basis = basis == default
        self._coords: Dict[int, Tuple[int, ...]] = {}
        # what the tower is: equality, hashing, pickling and spec strings
        # read this, in __init__'s order (basis None = polynomial basis)
        self._definition = (p, e, m, self.base_poly, self.ext_poly,
                            None if self._default_basis else basis)

    # -- coordinates -------------------------------------------------------
    def to_coords(self, x: int) -> Tuple[int, ...]:
        """Coordinates of x with respect to the ordered basis (tau_1..tau_m).

        Memoized per tower (at most |E| tuples, never pickled); the flatten
        maps of the deciders call this for every component they touch.
        """
        try:
            return self._coords[x]
        except KeyError:
            pass
        if not 0 <= x < self.order:
            raise ValueError(f"{x} is not an element of GF({self.order})")
        digits = int_to_digits(x, self.q, self.m)
        if not self._default_basis:
            digits = mat_vec(self.F, self._coord_matrix, digits)
        self._coords[x] = digits
        return digits

    def from_coords(self, coords: Sequence[int]) -> int:
        if len(coords) != self.m or min(coords) < 0 or max(coords) >= self.q:
            raise ValueError(f"{tuple(coords)} are not {self.m} coordinates "
                             f"over GF({self.q})")
        if not self._default_basis:
            coords = mat_vec(self.F, self._basis_matrix, coords)
        return digits_to_int(coords, self.q)

    def encode(self, x: int) -> int:
        """External serialization integer (base-q digits = basis coordinates)."""
        return digits_to_int(self.to_coords(x), self.q)

    def decode(self, v: int) -> int:
        return self.from_coords(int_to_digits(v, self.q, self.m))

    # -- expansion map -----------------------------------------------------
    def expand(self, alpha: Sequence[int]) -> List[List[int]]:
        """The unique M with alpha = (tau_1..tau_m) M; column j holds the
        coordinates of alpha_j."""
        cols = [self.to_coords(a) for a in alpha]
        return [[col[i] for col in cols] for i in range(self.m)]

    def reconstruct(self, mat: Sequence[Sequence[int]]) -> Tuple[int, ...]:
        """Inverse of ``expand``: column j holds the coordinates of alpha_j."""
        return tuple(self.from_coords(col) for col in zip(*mat))

    # -- serialization -------------------------------------------------------
    def spec_string(self) -> str:
        return ",".join(
            f"{key}={val}" if isinstance(val, int)
            else key + "=" + ",".join(map(str, val))
            for key, val in zip(_SPEC_KEYS, self._definition)
            if val is not None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldTower(GF({self.q}^{self.m})/GF({self.q}))"

    def __reduce__(self):
        # the engines hold closures; a tower pickles as its definition
        return FieldTower, self._definition

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldTower)
                and self._definition == other._definition)

    def __hash__(self) -> int:
        return hash(self._definition)


def make_field(p: int, m: int, *, e: int = 1,
               base_poly: Optional[Sequence[int]] = None,
               ext_poly: Optional[Sequence[int]] = None,
               basis: Optional[Sequence[int]] = None) -> FieldTower:
    """Build and validate a tower GF(q^m)/GF(q) with q = p^e.

    Raises ValueError if a modulus is not monic of the right degree over
    its subfield or base_poly is given with e = 1, NonIrreducible if either
    modulus factors and BadBasis if the supplied basis is dependent.
    Omitted polynomials default to the lexicographically smallest monic
    irreducible of the right degree.
    """
    if m < 1 or e < 1:
        raise ValueError("extension degrees must be >= 1")
    return FieldTower(p, e, m, base_poly, ext_poly, basis)


def parse_field_spec(spec: str) -> FieldTower:
    """Parse a field spec string, e.g. ``p=2,e=1,m=3,ext=1,1,0,1``;
    ``basis=b1,...,bm`` names a custom ordered basis (internal element
    integers).  Keys come in any order, and a repeated key replaces the
    earlier one."""
    values: Dict[str, List[int]] = {}
    current: Optional[List[int]] = None
    for token in spec.split(","):
        key, eq, val = token.strip().partition("=")
        if not eq:
            if current is None:
                raise ValueError(f"stray token {key!r} in field spec")
            current.append(int(key))
            continue
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ValueError(f"unknown field spec key {key!r}")
        values[key] = current = [int(val)]
        if key in _SPEC_KEYS[:3]:
            current = None
    p, e, m, base, ext, basis = map(values.get, _SPEC_KEYS)
    if p is None or m is None:
        raise ValueError("field spec needs at least p= and m=")
    return make_field(p[0], m[0], e=e[0] if e else 1, base_poly=base,
                      ext_poly=ext, basis=basis)
