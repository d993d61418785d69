"""Exact integer characteristic polynomials of twisted-GFSR transitions.

The n-word shift structure of this generator family collapses its
(nw - r)-square transition matrix to closed-form characteristic
polynomials:

* plain twisted GFSR (r = 0):  phi_B(t) = phi_S(t^n - t^m), where S is
  the w-square twist block — the substitution holds over the integers,
  not just mod 2 (the popular t^n + t^m form agrees only mod 2);
* with r masked bits:  phi_B = X^(w-r) Y^r
      - X^(w-r) * sum_{i=0}^{r-2} a_i Y^(r-1-i)
      - sum_{i=max(r-1,0)}^{w-1} a_i X^(w-i-1),
  where X = t^n - t^m, Y = t^(n-1) - t^(m-1), and a_i is bit i of the
  twist constant (a_0 the least significant).  At r = 0 the second sum
  absorbs everything and the expression reduces to the substitution
  form.

``assemble_block_matrix`` builds the integer block matrix these
formulas are the characteristic polynomials of.  Two conventions hide
in it and both matter:

* The tap identity is anchored by *scalar* row position (n-1-m)w, not
  by block index.  With masked bits the block row above the twist block
  is only w - r tall, so for m = 1 the tap block straddles it: the
  first w - r tap rows land there and the remaining r rows add into the
  twist block's rows.  Where a tap one meets a twist one the integer
  entry is 2 — reduced mod 2 those entries vanish, which is why the
  masked formula and the true GF(2) dynamics agree mod 2 while their
  integer characteristic polynomials differ exactly when m = 1 and a
  is odd.
* The assembled matrix is the transpose of the canonical dynamics mod
  2 (``mt_step_matrix`` in ``tests/_oracles.py``), so it acts on state
  row vectors; transposing does not change characteristic polynomials.

Everything here is verifiable: ``tests/_oracles.py::mt_step_matrix``
builds the transition matrix in canonical coordinates directly from the
block structure (it must equal the probe-extracted matrix of a matching
generator), and ``brute_charpoly`` computes exact integer characteristic
polynomials by the Faddeev-LeVerrier recurrence (Faddeev & Sominsky,
1949), an independent oracle for every formula above at small dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

ORACLE_DIM_LIMIT = 64


@dataclass(frozen=True)
class ZPoly:
    """Sparse integer-coefficient polynomial: sorted (degree, coeff) pairs."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        degrees = [d for d, _ in self.terms]
        if degrees != sorted(degrees) or len(set(degrees)) != len(degrees):
            raise ValueError("terms must be sorted by degree, without duplicates")
        if any(c == 0 for _, c in self.terms) or any(d < 0 for d, _ in self.terms):
            raise ValueError("zero coefficients and negative degrees are not stored")

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "ZPoly":
        return cls(tuple(sorted((d, c) for d, c in coeffs.items() if c)))

    @classmethod
    def from_dense(cls, coeffs: Sequence[int]) -> "ZPoly":
        """Coefficient list, lowest degree first."""
        return cls.from_dict({d: c for d, c in enumerate(coeffs)})

    @classmethod
    def constant(cls, c: int) -> "ZPoly":
        return cls.from_dict({0: c})

    @classmethod
    def x_power(cls, e: int, c: int = 1) -> "ZPoly":
        return cls.from_dict({e: c})

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else -1

    def coeff(self, d: int) -> int:
        for deg, c in self.terms:
            if deg == d:
                return c
        return 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "ZPoly") -> "ZPoly":
        out = dict(self.terms)
        for d, c in other.terms:
            out[d] = out.get(d, 0) + c
        return ZPoly.from_dict(out)

    def __neg__(self) -> "ZPoly":
        return ZPoly(tuple((d, -c) for d, c in self.terms))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        out: dict[int, int] = {}
        for d1, c1 in self.terms:
            for d2, c2 in other.terms:
                d = d1 + d2
                out[d] = out.get(d, 0) + c1 * c2
        return ZPoly.from_dict(out)

    def scale(self, c: int) -> "ZPoly":
        if c == 0:
            return ZPoly()
        return ZPoly(tuple((d, c * cc) for d, cc in self.terms))

    def evaluate(self, x: int) -> int:
        return sum(c * x**d for d, c in self.terms)

    def to_dense(self) -> list[int]:
        """Coefficient list, lowest degree first (empty for the zero poly)."""
        out = [0] * (self.degree + 1)
        for d, c in self.terms:
            out[d] = c
        return out

    def to_gf2(self):
        from .gf2poly import GF2Poly

        bits = 0
        for d, c in self.terms:
            if c & 1:
                bits |= 1 << d
        return GF2Poly(bits)

    def __repr__(self) -> str:
        if not self.terms:
            return "ZPoly(0)"
        parts = [f"{c}*t^{d}" if d else str(c) for d, c in reversed(self.terms)]
        return f"ZPoly({' + '.join(parts)})"


# -- block-recurrence parameters -------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """Word-level shape of an n-word twisted recurrence: n words of w
    bits, middle tap offset m, r masked (dead) bits, twist constant a."""

    n: int
    m: int
    w: int
    r: int
    a: int

    def __post_init__(self) -> None:
        if not 0 < self.m < self.n:
            raise ValueError("need 0 < m < n")
        if not 0 <= self.r < self.w:
            raise ValueError("need 0 <= r < w")
        if not 0 <= self.a < (1 << self.w):
            raise ValueError("twist constant must fit in w bits")

    @property
    def dim(self) -> int:
        return self.n * self.w - self.r


# -- closed-form characteristic polynomials ------------------------------


def binomial_power(n: int, m: int, e: int, sign: int = -1) -> ZPoly:
    """(t^n + sign*t^m)^e expanded exactly via binomial coefficients."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    coeffs: dict[int, int] = {}
    for j in range(e + 1):
        d = n * (e - j) + m * j
        coeffs[d] = coeffs.get(d, 0) + math.comb(e, j) * (sign**j)
    return ZPoly.from_dict(coeffs)


def phi_A(a: int, w: int) -> ZPoly:
    """Characteristic polynomial of the w-square twist companion block A:
    t^w - sum_{i=0}^{w-1} a_i t^(w-1-i), with a_0 the low bit of ``a``."""
    coeffs = {w: 1}
    for i in range(w):
        if (a >> i) & 1:
            coeffs[w - 1 - i] = coeffs.get(w - 1 - i, 0) - 1
    return ZPoly.from_dict(coeffs)


def tgfsr_charpoly(n: int, m: int, phi_s: ZPoly, sign: int = -1) -> ZPoly:
    """phi_S(t^n + sign*t^m): exact integer characteristic polynomial of
    the r = 0 block matrix for sign = -1.  The sign = +1 variant agrees
    only modulo 2."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    result = ZPoly()
    for e in range(phi_s.degree + 1):
        c = phi_s.coeff(e)
        if c:
            result = result + binomial_power(n, m, e, sign).scale(c)
    return result


def mt_charpoly(spec: BlockSpec) -> ZPoly:
    """Exact integer characteristic polynomial with r masked bits
    (degree nw - r); reduces to ``tgfsr_charpoly`` at r = 0."""
    n, m, w, r, a = spec.n, spec.m, spec.w, spec.r, spec.a
    x = binomial_power(n, m, 1)  # t^n - t^m
    y = binomial_power(n - 1, m - 1, 1) if m > 1 else ZPoly.from_dict({n - 1: 1, 0: -1})
    # m = 1 gives Y = t^(n-1) - t^0; binomial_power requires m >= 1, so
    # the shifted pair (n-1, 0) is spelled out directly.
    x_pows = [ZPoly.constant(1)]
    for _ in range(w):
        x_pows.append(x_pows[-1] * x)
    y_pows = [ZPoly.constant(1)]
    for _ in range(r):
        y_pows.append(y_pows[-1] * y)

    result = x_pows[w - r] * y_pows[r]
    for i in range(0, r - 1):
        if (a >> i) & 1:
            result = result - x_pows[w - r] * y_pows[r - 1 - i]
    for i in range(max(r - 1, 0), w):
        if (a >> i) & 1:
            result = result - x_pows[w - i - 1]
    return result


# -- block matrices ---------------------------------------------------------


def twist_companion_matrix(a: int, w: int) -> list[list[int]]:
    """The w-square twist block A in companion orientation, as 0/1 rows:
    ones on the superdiagonal, bottom row a_(w-1) .. a_0 left to right.
    Its characteristic polynomial is ``phi_A(a, w)``."""
    mat = [[int(j == i + 1) for j in range(w)] for i in range(w - 1)]
    mat.append([(a >> (w - 1 - j)) & 1 for j in range(w)])
    return mat


def assemble_block_matrix(spec: BlockSpec) -> list[list[int]]:
    """The (nw - r)-square integer block matrix whose characteristic
    polynomial the closed forms compute.

    Layout (block rows top to bottom): identity blocks on the block
    superdiagonal; the block row above the twist row is w - r tall and
    the last block column w - r wide; the twist block S = P A sits in
    the last block row at column 0, where P swaps the r masked
    coordinates above the w - r live ones; the tap identity I_w starts
    at scalar row (n-1-m)w, column 0.  Entries are summed over the
    integers, so the m = 1 tap straddle can produce entries equal to 2;
    everywhere else the matrix is 0/1.  Reduced mod 2 it is the
    transpose of ``tests/_oracles.py::mt_step_matrix``.
    """
    n, m, w, r, a = spec.n, spec.m, spec.w, spec.r, spec.a
    dim = spec.dim
    if dim > ORACLE_DIM_LIMIT:
        raise ValueError(f"matrix dimension {dim} exceeds oracle limit {ORACLE_DIM_LIMIT}")
    mat = [[0] * dim for _ in range(dim)]

    def row_start(i: int) -> int:
        # block rows 0 .. n-2 start at i*w; the narrow row n-2 is w-r
        # tall, so the last block row starts r earlier than (n-1)*w
        return i * w if i <= n - 2 else (n - 1) * w - r

    def row_height(i: int) -> int:
        return w - r if i == n - 2 else w

    def col_width(j: int) -> int:
        return w - r if j == n - 1 else w

    # identity blocks on the block superdiagonal
    for i in range(n - 1):
        span = min(row_height(i), col_width(i + 1))
        for q in range(span):
            mat[row_start(i) + q][(i + 1) * w + q] += 1
    # tap identity anchored at scalar row (n-1-m)*w
    base = (n - 1 - m) * w
    for q in range(w):
        mat[base + q][q] += 1
    # twist block S = P A in the last block row
    dense_a = twist_companion_matrix(a, w)
    s_block = [dense_a[w - r + i] for i in range(r)] + [dense_a[i] for i in range(w - r)]
    last = row_start(n - 1)
    for q in range(w):
        row = mat[last + q]
        for c in range(w):
            row[c] += s_block[q][c]
    return mat


# -- exact brute-force characteristic polynomials -------------------------


def brute_charpoly(mat: Sequence[Sequence[int]]) -> ZPoly:
    """det(tI - M) exactly, by the Faddeev-LeVerrier recurrence over ints.

    With M_0 = 0 and c_dim = 1, each step k = 1 .. dim forms
    M_k = M M_(k-1) + c_(dim-k+1) I and c_(dim-k) = -tr(M M_k) / k.  Each
    product reads only M's nonzeros, listed once per row, so a block
    matrix with 2-3 nonzeros per row costs about 3 dim^3 multiplies.
    """
    dim = len(mat)
    if dim > ORACLE_DIM_LIMIT:
        raise ValueError(f"matrix dimension {dim} exceeds oracle limit {ORACLE_DIM_LIMIT}")
    nonzeros = [[(j, int(x)) for j, x in enumerate(row) if x] for row in mat]
    coeffs = [0] * dim + [1]
    prod = [[0] * dim for _ in range(dim)]  # M M_0
    for k in range(1, dim + 1):
        for i in range(dim):
            prod[i][i] += coeffs[dim - k + 1]
        aux, prod = prod, []
        for row in nonzeros:
            acc = [0] * dim
            for j, x in row:
                acc = [a + x * b for a, b in zip(acc, aux[j])]
            prod.append(acc)
        trace = sum(prod[i][i] for i in range(dim))
        if trace % k:
            raise ArithmeticError(f"trace {trace} at step {k} is not divisible by {k}")
        coeffs[dim - k] = -trace // k
    return ZPoly.from_dense(coeffs)
