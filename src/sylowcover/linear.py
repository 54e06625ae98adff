"""Matrix groups over small finite fields and their family deciders.

SL(2,q) and GL(n,q) are enumerated from transvections (plus a scalar stretch
for GL); PSL(2,q) is realized as the faithful permutation action of SL(2,q)
on the q+1 points of the projective line.  There is no SL(n,q) build for
n >= 3.  Each builder hands its order formula to ``enumerate_group``.

A matrix group whose q^n - 1 nonzero vectors number at most
``perm.MAX_DEGREE`` is enumerated as the permutation group of the left
action v -> M*v on those column vectors (:class:`VectorOps`), so its products,
scans and classes run on the ``bytes.translate`` chains of permutation
groups.  Elements still enter and leave as :class:`SquareMatrix`, and
witnesses print as matrices: column j of M is the image of e_j.  Past that
degree (SL(2,17), SL(2,19), GL(2,q) for q >= 17, larger matrix fixtures) the
engine multiplies matrices entry by entry (:class:`MatrixOps`).  The choice
is made in one place, :meth:`SquareMatrix.group_ops`.  ``MatrixOps`` answers
the same ops protocol as ``PermutationOps``; its normalizer test, like the
permutation one, checks g^-1*h*g in H, and pairs inverses within a call so
each pair costs one inversion.

Both ops come from one cached constructor, ``for_shape``, keyed by the
class and (q, n): every matrix of a shape, over ``make_field(q)`` or a
directly built ``Field(q)``, hands the engine the same object, which is how
``enumerate_group`` sees that generators share a shape.  The vector action
and PSL(2,q)'s action on the projective line run through one point-action
helper.

The module also houses the closed-form redundancy deciders for the SL/PSL
and GL families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product, repeat
from typing import Any, Callable, Container, Iterable, Iterator, Optional, Sequence

from .errors import ClosureBudgetExceeded, DomainError, HypothesisFailed
from .fields import Field, make_field
from .groups import FiniteGroup, enumerate_group, pointwise_step, resolve_cap
from .numtheory import factorization, is_prime, prime_power_decomposition
from .perm import MAX_DEGREE, Permutation, PermutationOps


class SquareMatrix:
    """An invertible n-by-n matrix over GF(q), entries packed row-major in bytes."""

    __slots__ = ("field", "dim", "key")

    def __init__(self, field_: Field, entries, _key: Optional[bytes] = None):
        self.field = field_
        if _key is not None:
            self.dim = math.isqrt(len(_key))
            self.key = _key
            return
        flat = _flatten(entries)
        dim = math.isqrt(len(flat))
        if not flat or dim * dim != len(flat):
            raise DomainError(f"{len(flat)} entries do not form a square matrix")
        if any(not 0 <= e < field_.q for e in flat):
            raise DomainError(f"entries must be field encodings in [0, {field_.q})")
        self.dim = dim
        self.key = bytes(flat)
        if self.det() == 0:
            raise DomainError("matrix is singular")

    @classmethod
    def identity(cls, field_: Field, dim: int) -> "SquareMatrix":
        entries = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        return cls(field_, entries)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        ops = self._arithmetic()
        if other._arithmetic() is not ops:
            raise DomainError("cannot multiply matrices of different shapes/fields")
        return SquareMatrix(self.field, None, _key=ops.mul(self.key, other.key))

    def inverse(self) -> "SquareMatrix":
        return SquareMatrix(self.field, None, _key=self._arithmetic().inv(self.key))

    def det(self) -> int:
        return _gauss_jordan(self.key, self.dim, self.field)[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SquareMatrix)
            and other.field.q == self.field.q
            and other.key == self.key
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.key))

    def __repr__(self) -> str:
        return f"SquareMatrix({self.render()})"

    def render(self) -> str:
        return self._arithmetic().render(self.key)

    def _arithmetic(self) -> "MatrixOps":
        return MatrixOps.for_shape(self.field, self.dim)

    def group_ops(self) -> "VectorOps | MatrixOps":
        """The engine's ops for this shape: the action on the nonzero vectors when they number at most MAX_DEGREE."""
        kind = VectorOps if self.field.q**self.dim - 1 <= MAX_DEGREE else MatrixOps
        return kind.for_shape(self.field, self.dim)


def _flatten(entries) -> list[int]:
    if entries and isinstance(entries[0], (list, tuple)):
        return [int(e) for row in entries for e in row]
    return [int(e) for e in entries]


def _gauss_jordan(key: bytes, n: int, f: Field) -> tuple[int, Optional[bytes]]:
    """Determinant and inverse key (None when singular) by one Gauss-Jordan elimination."""
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    rows = [list(key[i * n:(i + 1) * n]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = neg[det]
        det = mul[det][rows[col][col]]
        scale = mul[f.inv(rows[col][col])]
        rows[col] = [scale[x] for x in rows[col]]
        for r in range(n):
            if rows[r][col] and r != col:
                # x - c*y is x + (-c)*y: one row of mul_table serves the whole row
                times = mul[neg[rows[r][col]]]
                rows[r] = [add[x][times[y]] for x, y in zip(rows[r], rows[col])]
    return det, bytes(x for row in rows for x in row[n:])


def _point_action(f: Field, key: bytes, points: Sequence[tuple[int, ...]], locate: Callable[[tuple[int, ...]], int]) -> bytes:
    """The permutation key of v -> M*v on ``points``, for M's row-major key; ``locate`` places each image."""
    n = len(points[0])
    add, mul = f.add_table, f.mul_table
    rows = [key[i * n:(i + 1) * n] for i in range(n)]
    images = []
    for v in points:
        image = []
        for row in rows:
            acc = 0
            for m, x in zip(row, v):
                acc = add[acc][mul[m][x]]
            image.append(acc)
        images.append(locate(tuple(image)))
    return bytes(images)


@cache
def _shape_ops(kind: type, q: int, dim: int) -> "MatrixOps | VectorOps":
    """The one ops object of ``kind`` per (q, n): keyed by q, so a directly built Field(q) shares it."""
    return kind(make_field(q), dim)


class _MatrixShape:
    """What both ops of a matrix shape share: the cached lookup, and elements in and out as matrix keys."""

    field: Field
    dim: int

    @classmethod
    def for_shape(cls, field_: Field, dim: int):
        return _shape_ops(cls, field_.q, dim)

    def wrap(self, key: bytes) -> SquareMatrix:
        return SquareMatrix(self.field, None, _key=key)

    def unwrap(self, element: object) -> bytes:
        if (
            not isinstance(element, SquareMatrix)
            or element.dim != self.dim
            or element.field.q != self.field.q
        ):
            raise DomainError(f"expected a {self.dim}x{self.dim} matrix over GF({self.field.q})")
        return element.key

    def render(self, key: bytes) -> str:
        n = self.dim
        rows = ["[" + ",".join(str(e) for e in key[i * n:(i + 1) * n]) + "]" for i in range(n)]
        return "[" + ",".join(rows) + f"] over GF({self.field.q})"

    def describe(self) -> str:
        return f"matrix group of dimension {self.dim} over GF({self.field.q})"


class MatrixOps(_MatrixShape):
    """Key-level matrix arithmetic for the group engine."""

    def __init__(self, field_: Field, dim: int):
        self.field = field_
        self.dim = dim
        self._identity = bytes(1 if i % (dim + 1) == 0 else 0 for i in range(dim * dim))
        # |GL(dim, q)|, a multiple of every element order
        self.exponent = gl_order(dim, field_.q)
        self._exponent_primes = [p for p, _ in factorization(self.exponent)]

    def identity_key(self) -> bytes:
        return self._identity

    def mul(self, a: bytes, b: bytes) -> bytes:
        n = self.dim
        add = self.field.add_table
        mul = self.field.mul_table
        out = bytearray(n * n)
        for i in range(n):
            row = a[i * n:(i + 1) * n]
            base = i * n
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = add[acc][mul[row[k]][b[k * n + j]]]
                out[base + j] = acc
        return bytes(out)

    def inv(self, a: bytes) -> bytes:
        inverse = _gauss_jordan(a, self.dim, self.field)[1]
        if inverse is None:
            raise DomainError("matrix is singular")
        return inverse

    def conjugator(self, g: bytes) -> Callable[[bytes], bytes]:
        """k -> g^-1 * k * g, with g inverted once."""
        ginv = self.inv(g)
        return lambda k: self.mul(self.mul(ginv, k), g)

    def multiplication_step(self, gens: Sequence[bytes]) -> Callable[[list[bytes]], Iterator[bytes]]:
        """The walk step of right multiplication, one product per image."""
        return pointwise_step(gens, self.mul)

    def powers(self, keys: Iterable[bytes], e: int) -> Iterator[bytes]:
        """k^e for each key, lazily, by squaring and multiplying one key at a time."""
        return map(self._power, keys, repeat(e))

    def _power(self, key: bytes, e: int) -> bytes:
        result = None
        while e:
            if e & 1:
                # powers of one element commute, so the order of factors is free
                result = key if result is None else self.mul(result, key)
            e >>= 1
            if e:
                key = self.mul(key, key)
        return self._identity if result is None else result

    def normalizing_keys(self, members: Container[bytes], gens: Sequence[bytes], keys: Iterable[bytes]) -> Iterator[bytes]:
        """The keys g with g^-1*h*g in H for every generator h, lazily and in order.

        That is g^-1 H g = H, the same set as the permutation test's
        g H g^-1 = H, since H is finite.  Each inverse is filed with the key
        it came from, so a later key that is that inverse costs no
        inversion: a scan of the whole group inverts once per pair {g, g^-1}.
        """
        mul = self.mul
        paired: dict[bytes, bytes] = {}
        for g in keys:
            ginv = paired.pop(g, None)
            if ginv is None:
                ginv = self.inv(g)
                paired[ginv] = g
            for h in gens:
                if mul(mul(ginv, h), g) not in members:
                    break
            else:
                yield g

    def key_order(self, key: bytes) -> int:
        """Least k >= 1 with key^k = 1: ``exponent`` with each prime stripped while the power stays trivial."""
        order = self.exponent
        for p in self._exponent_primes:
            while order % p == 0 and self._power(key, order // p) == self._identity:
                order //= p
        return order


class VectorOps(_MatrixShape, PermutationOps):
    """Matrices over GF(q) as permutations of the q^n - 1 nonzero column vectors, v -> M*v.

    ``PermutationOps.mul(a, b)`` applies b first, so M -> (v -> M*v) is a
    faithful homomorphism: the element-table walk meets the same elements
    in the same order as on matrix keys, and every index, Sylow subgroup and
    witness is the same.  Keys are the permutations; ``wrap``, ``unwrap``
    and ``render`` convert at the edges, reading column j of M off the image
    of e_j.  The vectors are listed once per shape, in ``product`` order
    with the zero vector left out.
    """

    def __init__(self, field_: Field, dim: int):
        self.field = field_
        self.dim = dim
        self.vectors = list(product(range(field_.q), repeat=dim))[1:]
        self._position = {v: i for i, v in enumerate(self.vectors)}
        self._basis = [self._position[tuple(int(i == j) for i in range(dim))] for j in range(dim)]
        super().__init__(len(self.vectors))

    def action_key(self, matrix_key: bytes) -> bytes:
        """The permutation v -> M*v of the nonzero vectors, for M's row-major key."""
        return _point_action(self.field, matrix_key, self.vectors, self._position.__getitem__)

    def matrix_key(self, key: bytes) -> bytes:
        """M's row-major key from its permutation: column j is the image of e_j."""
        columns = [self.vectors[key[b]] for b in self._basis]
        return bytes(column[i] for i in range(self.dim) for column in columns)

    def wrap(self, key: bytes) -> SquareMatrix:
        return super().wrap(self.matrix_key(key))

    def unwrap(self, element: object) -> bytes:
        return self.action_key(super().unwrap(element))

    def render(self, key: bytes) -> str:
        return super().render(self.matrix_key(key))


@dataclass
class FamilyVerdict:
    """Closed-form decision for a classical family, with the clause that fired."""

    family: str
    params: dict[str, Any]
    redundant: bool
    reason: str


def gl_order(n: int, q: int) -> int:
    order = 1
    qn = q**n
    for i in range(n):
        order *= qn - q**i
    return order


def sl_order(n: int, q: int) -> int:
    return gl_order(n, q) // (q - 1)


def psl_order(n: int, q: int) -> int:
    return sl_order(n, q) // math.gcd(n, q - 1)


def _log10_gl_order(n: int, q: int) -> float:
    """log10 of |GL(n,q)| = q^(n^2) * prod_{k=1..n} (1 - q^-k); past k = 64 the factors round to 1."""
    return n * n * math.log10(q) + sum(math.log10(1 - 1 / q**k) for k in range(1, min(n, 64) + 1))


def _elementary(f: Field, n: int, pos: int, value: int) -> SquareMatrix:
    """The identity with row-major entry ``pos`` set to a nonzero ``value``."""
    key = bytearray(MatrixOps.for_shape(f, n).identity_key())
    key[pos] = value
    return SquareMatrix(f, None, _key=bytes(key))


def _sl_generators(f: Field, n: int) -> list[SquareMatrix]:
    """Adjacent-position transvections with coefficients spanning GF(q) over its prime field."""
    # a multiplicative generator has degree k, so its first k powers form a basis
    basis = [f.pow(f.generator, m) for m in range(f.k)]
    return [
        _elementary(f, n, pos, c)
        for i in range(n - 1) for c in basis for pos in (i * n + i + 1, (i + 1) * n + i)
    ]


def _projective_points(f: Field) -> list[tuple[int, int]]:
    """The q+1 points of the projective line: [x:1] for x in GF(q), then [1:0]."""
    return [(x, 1) for x in f.elements()] + [(1, 0)]


def _projective_action(gen: SquareMatrix, points: list[tuple[int, int]], f: Field) -> Permutation:
    # [x:y] is [x/y:1], which sits at position x/y, or [1:0] at position q
    return Permutation(_point_action(f, gen.key, points, lambda v: f.mul(v[0], f.inv(v[1])) if v[1] else f.q))


def _sl2_group(q: int, cap: Optional[int] = None) -> FiniteGroup:
    return enumerate_group(_sl_generators(make_field(q), 2), name=f"SL(2,{q})", cap=cap, order=sl_order(2, q))


def _psl2_group(q: int, cap: Optional[int] = None) -> FiniteGroup:
    # lazy generators, formed after the cap check: q+1 points may pass the degree bound
    f = make_field(q)
    points = _projective_points(f)
    gens = (_projective_action(m, points, f) for m in _sl_generators(f, 2))
    return enumerate_group(gens, name=f"PSL(2,{q})", cap=cap, order=psl_order(2, q))


def _gl_group(n: int, q: int, cap: Optional[int] = None) -> FiniteGroup:
    f = make_field(q)
    # |GL(n,q)| >= 2^(n(n-1)/2): refuse a huge n before its exact order is computed
    limit = resolve_cap(cap)
    if n * (n - 1) // 2 >= limit.bit_length():
        raise ClosureBudgetExceeded(limit)
    gens = _sl_generators(f, n)
    if q > 2:
        gens.append(_elementary(f, n, 0, f.generator))
    if not gens:
        # GL(1,2) is trivial: it has no transvection and no stretch
        gens.append(SquareMatrix.identity(f, n))
    return enumerate_group(gens, name=f"GL({n},{q})", cap=cap, order=gl_order(n, q))


def is_two_power_neighbor(q: int) -> Optional[str]:
    """Classify q as 2^k, 2^k+1, or 2^k-1 (smallest matching form), else None."""
    if q < 2:
        raise DomainError(f"q must be at least 2, got {q}")
    if q & (q - 1) == 0:
        return f"2^{q.bit_length() - 1}"
    if (q - 1) & (q - 2) == 0:
        return f"2^{(q - 1).bit_length() - 1}+1"
    if (q + 1) & q == 0:
        return f"2^{(q + 1).bit_length() - 1}-1"
    return None


def theorem_D_decide(family: str, q: int, p: int) -> FamilyVerdict:
    """Closed-form redundancy decision for SL(2,q) and PSL(2,q).

    Redundant exactly when p = 2, q is odd, and q is not adjacent to (or
    itself) a power of two.
    """
    if family not in ("SL2", "PSL2"):
        raise DomainError(f"family must be SL2 or PSL2, got {family!r}")
    char, _ = prime_power_decomposition(q)
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    params = {"q": q, "p": p}
    if p == char:
        return FamilyVerdict(family, params, False, "characteristic p: Sylow subgroups intersect trivially")
    if p != 2:
        return FamilyVerdict(family, params, False, "odd p away from the characteristic: cyclic Sylow subgroups")
    neighbor = is_two_power_neighbor(q)
    if neighbor is not None:
        return FamilyVerdict(family, params, False, f"q = {neighbor}: an element of maximal 2-power order is a unique-Sylow witness")
    return FamilyVerdict(family, params, True, "p = 2 and q not of the form 2^k, 2^k+1, 2^k-1")


def theorem_51_decide(n: int, q: int, p: int) -> FamilyVerdict:
    """Closed-form redundancy decision for GL(n,q) when p exactly divides q-1.

    Requires p odd, p | q-1, p^2 not | q-1, and 1 < n <= p; then GL(n,q) is
    redundant exactly for n = p.
    """
    if not is_prime(p) or p == 2:
        raise HypothesisFailed(f"p must be an odd prime, got {p}")
    prime_power_decomposition(q)
    if (q - 1) % p != 0:
        raise HypothesisFailed(f"p = {p} does not divide q-1 = {q - 1}")
    if (q - 1) % (p * p) == 0:
        raise HypothesisFailed(f"p^2 = {p * p} divides q-1 = {q - 1}")
    if not 1 < n <= p:
        raise HypothesisFailed(f"n must satisfy 1 < n <= p, got n = {n}")
    params = {"n": n, "q": q, "p": p}
    if n == p:
        return FamilyVerdict("GL", params, True, "n = p: every p-element fixes more than one frame of eigen-lines")
    return FamilyVerdict("GL", params, False, "n < p: a p-element with distinct eigenvalues fixes a unique frame")
