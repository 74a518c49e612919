"""Integer lattices: Hermite and Smith normal forms, congruence lattices,
membership, quotients.

One elimination does the work, the row Hermite normal form.  Lattices are
stored by a canonical Hermite basis (positive pivots, entries above a
pivot reduced into [0, pivot)), so lattice equality is representation
equality.  A lattice of full rank also carries its congruences: a modulus
m and a few rows r with x in L iff r . x = 0 mod m for each r, so
membership is a few dot products (Domich, Kannan and Trotter, Math. Oper.
Res. 12, 1987).  The rows are those of the Hermite form of
[congruences; m I] whose pivot is below m.  A lattice cut out by
congruences keeps the rows of the form it was cut out by; one built from
generators derives its rows once, when first asked, from the columns of
D B^-1 (B its basis, D = det B).  ``reduce`` is for coordinates over the
basis (the Smith form of a quotient) and for membership in a lattice of
lower rank.  The Smith form alternates row and column Hermite forms.

Input rows are checked once, where they enter (``hermite_normal_form``,
``IntegerLattice(ambient, rows)``, ``congruence_lattice``,
``smith_normal_form``, ``reduce``, ``contains``): an integral ``Fraction``
is taken as its int, a non-integral one raises ValueError, a float, a
bool or any other non-integer raises TypeError, and a row of the wrong
length raises ValueError.  Nothing is truncated to an integer.  Rows the
module builds itself take unchecked paths, and its lattices come through
``IntegerLattice._of``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import index, mul

from .records import Record

__all__ = [
    "IntegerLattice",
    "AbelianQuotient",
    "SolveResult",
    "hermite_normal_form",
    "smith_normal_form",
    "congruence_lattice",
    "integer_kernel",
    "nullspace_mod",
    "hnf_basis",
    "snf_quotient",
    "solve_in_lattice",
]


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _integer_vector(vec) -> list:
    """The entries of ``vec`` as ints, by the input rule of the module
    docstring."""
    return [x if type(x) is int else _integer_entry(x) for x in vec]


def _integer_entry(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"non-integral lattice entry {x}")
        return x.numerator
    if type(x) is bool or not hasattr(type(x), "__index__"):
        raise TypeError(f"lattice entry {x!r} is not an integer")
    return index(x)


def _integer_rows(rows, n: int) -> list:
    """``rows`` as lists of ints, by the input rule of the module
    docstring; a row of length other than ``n`` raises ValueError."""
    out = [_integer_vector(r) for r in rows]
    if any(len(r) != n for r in out):
        raise ValueError(f"rows must all have length {n}")
    return out


def hermite_normal_form(rows, track=False):
    """Canonical row HNF of the integer span of ``rows``.

    Returns the list of nonzero HNF rows; with ``track=True`` also a
    unimodular U (rows of coefficients over the inputs) with
    U * rows = [hnf rows; zero rows].
    """
    return _hermite(_integer_rows(rows, len(rows[0]) if rows else 0), track)


def _hermite(rows, track=False):
    """``hermite_normal_form`` of rows of ints of one length, unchecked."""
    work = list(map(list, rows))
    m = len(work)
    n = len(work[0]) if work else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track else None

    pivot_row = 0
    for col in range(n):
        sel = None
        for i in range(pivot_row, m):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        if track:
            u[pivot_row], u[sel] = u[sel], u[pivot_row]
        for i in range(pivot_row + 1, m):
            while work[i][col]:
                a, b = work[pivot_row][col], work[i][col]
                if b % a == 0:
                    _row_sub(work, u, i, pivot_row, b // a, track)
                else:
                    g, x, y = _xgcd(a, b)
                    _row_combine(work, u, pivot_row, i, x, y, a // g, b // g, track)
        if work[pivot_row][col] < 0:
            work[pivot_row] = [-v for v in work[pivot_row]]
            if track:
                u[pivot_row] = [-v for v in u[pivot_row]]
        p = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // p
            if q:
                _row_sub(work, u, i, pivot_row, q, track)
        pivot_row += 1
        if pivot_row == m:
            break
    basis = [work[i] for i in range(pivot_row)]
    if track:
        return basis, u
    return basis


def _row_sub(work, u, i, j, q, track):
    work[i] = [a - q * b for a, b in zip(work[i], work[j])]
    if track:
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]


def _row_combine(work, u, i, j, x, y, ag, bg, track):
    # rows (i, j) <- (x*ri + y*rj, -bg*ri + ag*rj); determinant-1 transform
    ri, rj = work[i], work[j]
    work[i] = [x * a + y * b for a, b in zip(ri, rj)]
    work[j] = [-bg * a + ag * b for a, b in zip(ri, rj)]
    if track:
        si, sj = u[i], u[j]
        u[i] = [x * a + y * b for a, b in zip(si, sj)]
        u[j] = [-bg * a + ag * b for a, b in zip(si, sj)]


def integer_kernel(rows):
    """Basis of {x : x * rows = 0} as integer row vectors."""
    if not rows:
        return []
    hnf, u = hermite_normal_form(rows, track=True)
    rank = len(hnf)
    return [u[i] for i in range(rank, len(rows))]


def nullspace_mod(a, p):
    """Basis of {v : a v = 0 mod p} for a prime p, as lists over [0, p).

    Forward elimination brings a to an echelon form with unit pivots; each
    free column c gives the kernel vector with 1 at c, 0 at the other free
    columns and the pivot coordinates by back substitution.  These are the
    vectors read off the reduced echelon form, in the order of c.
    """
    n_cols = len(a[0])
    rows = [[x % p for x in row] for row in a]
    echelon, pivots = [], []
    for c in range(n_cols):
        k = next((i for i, row in enumerate(rows) if row[c]), None)
        if k is None:
            continue
        row = rows.pop(k)
        inv = pow(row[c], p - 2, p)
        row = [x * inv % p for x in row]
        rows = [[(x - r[c] * y) % p for x, y in zip(r, row)] if r[c] else r
                for r in rows]
        echelon.append(row)
        pivots.append(c)
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        v = [0] * n_cols
        v[fc] = 1
        for row, pc in zip(reversed(echelon), reversed(pivots)):
            v[pc] = -sum(map(mul, row[pc + 1:], v[pc + 1:])) % p
        basis.append(v)
    return basis


def _congruence_form(rows, modulus: int, n: int) -> list:
    """The Hermite form H of [rows; modulus I], taken on the residues of
    ``rows`` mod ``modulus`` with duplicates and zeros dropped: square,
    upper triangular, each pivot a divisor of ``modulus`` and every other
    entry in [0, modulus).  A row whose pivot is ``modulus`` lies, mod
    ``modulus``, in the span of the rows below it."""
    residues = dict.fromkeys(tuple([x % modulus for x in r]) for r in rows)
    return _hermite(
        [r for r in residues if any(r)]
        + [[modulus if i == j else 0 for j in range(n)] for i in range(n)])


def _congruence_rows(h, modulus: int) -> list:
    """The rows of ``_congruence_form``'s H whose pivot is below
    ``modulus``: they span the same residues mod ``modulus`` as all of H."""
    return [r for i, r in enumerate(h) if r[i] < modulus]


def _scaled_inverse_columns(h, scale: int) -> list:
    """The columns of scale * h^-1 for a square upper triangular h with
    positive diagonal, by back substitution; exact when scale * Z^n lies
    in the row span of h."""
    n = len(h)
    columns = []
    for j in range(n):
        x = [0] * n
        x[j] = scale // h[j][j]
        for i in range(j - 1, -1, -1):
            x[i] = -sum(map(mul, h[i][i + 1:j + 1], x[i + 1:j + 1])) // h[i][i]
        columns.append(x)
    return columns


def _prime_divisors(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def smith_normal_form(matrix):
    """Invariant factors d_1 | d_2 | ... (including 1s) of an integer matrix.

    Row and column Hermite forms alternate until the matrix is diagonal.
    Each pass is unimodular on one side, and the corner pivot (the gcd of
    its column, then of its row) divides the one before, so it settles;
    then its row and column are clear and the passes act on the block
    below it.  The diagonal becomes the divisibility chain by replacing
    adjacent pairs with their gcd and lcm, which keeps the quotient group.
    """
    if not matrix or not matrix[0]:
        return []
    return _smith(_integer_rows(matrix, len(matrix[0])))


def _smith(matrix) -> list:
    """``smith_normal_form`` of a nonempty matrix of ints, unchecked."""
    a = _hermite(matrix)
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = _hermite(list(zip(*a)))
    factors = [row[i] for i, row in enumerate(a)]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            if y % x:
                factors[i], factors[i + 1] = gcd(x, y), lcm(x, y)
                changed = True
    return factors


class AbelianQuotient(Record):
    """Finite abelian quotient, invariant factors with 1s omitted;
    ``rank_deficit`` counts the infinite cyclic factors."""

    __slots__ = ("factors", "rank_deficit")

    @property
    def order(self):
        if self.rank_deficit:
            return None
        out = 1
        for d in self.factors:
            out *= d
        return out

    def __str__(self):
        parts = [str(d) for d in self.factors]
        parts.extend(["Z"] * self.rank_deficit)
        return " x ".join(parts) if parts else "1"


class SolveResult(Record):
    """Outcome of expressing a vector over lattice generators."""

    __slots__ = ("coords", "certificate")

    @property
    def solved(self):
        return self.coords is not None


class IntegerLattice:
    """Integer lattice spanned by ``rows`` in Z^ambient, stored by its
    canonical HNF basis rows; ``pivots`` holds each row's pivot column,
    found once here.  A lattice of full rank answers membership from its
    congruences (module docstring), derived on first use unless the
    lattice was cut out by them."""

    __slots__ = ("ambient", "basis", "pivots", "_congruences")

    def __init__(self, ambient: int, rows=()):
        self._set(ambient, _integer_rows(rows, ambient), None)

    @classmethod
    def _of(cls, ambient: int, rows, congruences=None) -> "IntegerLattice":
        """From rows of ints of length ``ambient``, without checks;
        ``congruences``, when given, is a pair (m, rows) known to cut the
        lattice out."""
        self = object.__new__(cls)
        self._set(ambient, rows, congruences)
        return self

    def _set(self, ambient: int, rows, congruences) -> None:
        self.ambient = ambient
        self.basis = [tuple(r) for r in _hermite(rows)]
        self.pivots = [next(j for j, x in enumerate(r) if x)
                       for r in self.basis]
        self._congruences = congruences

    @staticmethod
    def full(n: int) -> "IntegerLattice":
        return IntegerLattice._of(n, [[1 if i == j else 0 for j in range(n)]
                                      for i in range(n)])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def determinant(self) -> int:
        """Product of the HNF pivots: [Z^n : self] when of full rank."""
        out = 1
        for row, col in zip(self.basis, self.pivots):
            out *= row[col]
        return out

    def __eq__(self, other):
        return (isinstance(other, IntegerLattice)
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, tuple(self.basis)))

    def _vector(self, vec) -> list:
        v = _integer_vector(vec)
        if len(v) != self.ambient:
            raise ValueError("vector length differs from ambient rank")
        return v

    def reduce(self, vec):
        """Remainder of vec modulo the basis plus the coordinates used."""
        return self._reduce(self._vector(vec))

    def _reduce(self, v):
        """``reduce`` of a vector of ints of length ``ambient``, unchecked."""
        coords = []
        for row, col in zip(self.basis, self.pivots):
            q = v[col] // row[col]
            coords.append(q)
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return v, coords

    @property
    def congruences(self) -> tuple:
        """(m, rows): x lies in the lattice iff r . x = 0 mod m for every
        row r; at most ``ambient`` rows, their entries in [0, m).  Requires
        full rank."""
        if self._congruences is None:
            if len(self.basis) < self.ambient:
                raise ValueError("lattice is not of full rank")
            # x B^-1 is integral iff x . c = 0 mod D for each column c of
            # D B^-1, the Hermite basis B being square upper triangular
            d = self.determinant
            h = _congruence_form(_scaled_inverse_columns(self.basis, d), d,
                                 self.ambient)
            self._congruences = (d, _congruence_rows(h, d))
        return self._congruences

    def contains(self, vec) -> bool:
        return self._contains(self._vector(vec))

    def _contains(self, v) -> bool:
        """``contains`` of a vector of ints of length ``ambient``, unchecked."""
        if len(self.basis) < self.ambient:
            return not any(self._reduce(v)[0])
        modulus, rows = self.congruences
        return not any(sum(map(mul, r, v)) % modulus for r in rows)

    def contains_lattice(self, other: "IntegerLattice") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("ambient ranks differ")
        return all(map(self._contains, other.basis))

    def prime_order_points(self) -> list:
        """One x in Z^n per F_p-line of (Z^n / self)[p], for each prime p
        dividing [Z^n : self], as integer vectors.

        For the basis M, (Z^n / self)[p] is {c M / p : c M = 0 mod p}, the
        left kernel of M mod p; c runs over one vector per line of that
        kernel (first nonzero coordinate 1).  Requires full rank.
        """
        if self.rank != self.ambient:
            raise ValueError("lattice is not of full rank")
        primes = set()
        for row, col in zip(self.basis, self.pivots):   # positive pivots
            primes.update(_prime_divisors(row[col]))
        columns = list(zip(*self.basis))
        points = []
        for p in sorted(primes):
            kernel = nullspace_mod(columns, p)
            for lead in range(len(kernel)):
                for tail in product(range(p), repeat=len(kernel) - lead - 1):
                    c = kernel[lead]
                    for a, v in zip(tail, kernel[lead + 1:]):
                        c = [x + a * y for x, y in zip(c, v)]
                    points.append([
                        sum(ci * mi for ci, mi in zip(c, col)) // p
                        for col in columns])
        return points

    def index_in(self, sup: "IntegerLattice"):
        """[sup : self]; None when infinite (rank drop)."""
        if not sup.contains_lattice(self):
            raise ValueError("not a sublattice")
        if self.rank < sup.rank:
            return None
        return self.determinant // sup.determinant

    def __repr__(self):
        return f"IntegerLattice(ambient={self.ambient}, rank={self.rank})"


def hnf_basis(vectors, ambient=None) -> IntegerLattice:
    """Canonical HNF lattice spanned by ``vectors`` (empty -> zero lattice)."""
    vectors = list(vectors)
    if ambient is None:
        if not vectors:
            raise ValueError("ambient rank required for the empty span")
        ambient = len(vectors[0])
    return IntegerLattice(ambient, vectors)


def congruence_lattice(rows, modulus: int, ambient: int) -> IntegerLattice:
    """{x in Z^ambient : r . x = 0 mod ``modulus`` for every row r}.

    H, the Hermite form of [rows; modulus I], is upper triangular with
    positive diagonal, and x satisfies the congruences iff H x lies in
    modulus Z^ambient, so the lattice is spanned by the columns of
    modulus H^-1.
    """
    if modulus < 1:
        raise ValueError(f"modulus {modulus} is not positive")
    rows = _integer_rows(rows, ambient)
    # on reversed coordinates the columns of modulus H^-1, last first,
    # are already an echelon, which the constructor's Hermite form only
    # normalizes
    h = _congruence_form([r[::-1] for r in rows], modulus, ambient)
    columns = _scaled_inverse_columns(h, modulus)
    return IntegerLattice._of(
        ambient, [c[::-1] for c in reversed(columns)],
        congruences=(modulus, [r[::-1] for r in _congruence_rows(h, modulus)]))


def snf_quotient(sub: IntegerLattice, sup: IntegerLattice) -> AbelianQuotient:
    """Invariant factors of sup/sub; requires sub contained in sup."""
    if sub.ambient != sup.ambient:
        raise ValueError("ambient ranks differ")
    coords = []
    for row in sub.basis:
        v, c = sup._reduce(row)
        if any(v):
            raise ValueError("sub is not contained in sup")
        coords.append(c)
    deficit = sup.rank - sub.rank
    if not coords:
        return AbelianQuotient((), rank_deficit=deficit)
    factors = _smith(coords)
    return AbelianQuotient(tuple(d for d in factors if d != 1),
                           rank_deficit=deficit)


def solve_in_lattice(vec, generators) -> SolveResult:
    """Canonical integer coordinates of ``vec`` over ``generators``.

    Non-membership returns a certificate naming the first failing
    congruence of the HNF back-substitution.  The canonical solution is
    the HNF back-substitution lifted through the tracked transformation.
    """
    v = _integer_vector(vec)
    gens = list(generators)
    if not gens:
        return SolveResult(None, "no generators")
    if len(v) != len(gens[0]):
        raise ValueError(f"vector of length {len(v)} against generators "
                         f"of length {len(gens[0])}")
    hnf, u = hermite_normal_form(gens, track=True)
    coords_h = [0] * len(hnf)
    for i, row in enumerate(hnf):
        col = next(j for j, x in enumerate(row) if x)
        if any(v[j] for j in range(col)):
            bad = next(j for j in range(col) if v[j])
            return SolveResult(
                None, f"coordinate {bad} has no pivot below it (residue {v[bad]})")
        if v[col] % row[col]:
            return SolveResult(
                None,
                f"coordinate {col}: residue {v[col] % row[col]} modulo pivot {row[col]}")
        q = v[col] // row[col]
        coords_h[i] = q
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        bad = next(j for j, x in enumerate(v) if x)
        return SolveResult(None, f"coordinate {bad}: residue {v[bad]} beyond pivots")
    out = [0] * len(gens)
    for q, urow in zip(coords_h, u):
        if q:
            out = [a + q * b for a, b in zip(out, urow)]
    return SolveResult(tuple(out), None)
