"""Matrix groups over small finite fields and their family deciders.

SL(2,q) and GL(n,q) are enumerated from transvections (plus a scalar stretch
for GL); PSL(2,q) is realized as the faithful permutation action of SL(2,q)
on the q+1 points of the projective line.  There is no SL(n,q) build for
n >= 3.  Each builder hands its order formula to ``enumerate_group``.

The module also houses the closed-form redundancy deciders for the SL/PSL
and GL families and the structural checks used to cross-validate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .errors import ClosureBudgetExceeded, DomainError, HypothesisFailed
from .fields import Field, make_field
from .groups import FiniteGroup, KeyClosure, Subgroup, enumerate_group, resolve_cap
from .numtheory import is_prime, prime_power_decomposition
from .perm import Permutation


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

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(self.key)

    @classmethod
    def identity(cls, field_: Field, dim: int) -> "SquareMatrix":
        entries = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        return cls(field_, entries)

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        ops = self.group_ops()
        if other.group_ops() is not ops:
            raise DomainError("cannot multiply matrices of different shapes/fields")
        return SquareMatrix(self.field, None, _key=ops.mul(self.key, other.key))

    def inverse(self) -> "SquareMatrix":
        return SquareMatrix(self.field, None, _key=self.group_ops().inv(self.key))

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
        return _render_key(self.key, self.dim, self.field)

    def group_ops(self) -> "MatrixOps":
        return MatrixOps.for_shape(self.field, self.dim)


def _flatten(entries) -> list[int]:
    if entries and isinstance(entries[0], (list, tuple)):
        return [int(e) for row in entries for e in row]
    return [int(e) for e in entries]


def _gauss_jordan(key: bytes, n: int, f: Field) -> tuple[int, Optional[bytes]]:
    """Determinant and inverse key (None when singular) by one Gauss-Jordan elimination."""
    rows = [list(key[i * n:(i + 1) * n]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = f.neg(det)
        det = f.mul(det, rows[col][col])
        inv_p = f.inv(rows[col][col])
        rows[col] = [f.mul(x, inv_p) for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[r], rows[col])]
    return det, bytes(x for row in rows for x in row[n:])


def _render_key(key: bytes, n: int, f: Field) -> str:
    rows = ["[" + ",".join(str(e) for e in key[i * n:(i + 1) * n]) + "]" for i in range(n)]
    return "[" + ",".join(rows) + f"] over GF({f.q})"


class MatrixOps:
    """Key-level matrix arithmetic for the group engine."""

    _instances: dict[tuple[int, int], "MatrixOps"] = {}

    def __init__(self, field_: Field, dim: int):
        self.field = field_
        self.dim = dim

    @classmethod
    def for_shape(cls, field_: Field, dim: int) -> "MatrixOps":
        shape = (field_.q, dim)
        inst = cls._instances.get(shape)
        if inst is None:
            inst = cls(field_, dim)
            cls._instances[shape] = inst
        return inst

    def identity_key(self) -> bytes:
        n = self.dim
        return bytes(1 if i % (n + 1) == 0 else 0 for i in range(n * n))

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
        return _render_key(key, self.dim, self.field)

    def describe(self) -> str:
        return f"matrix group of dimension {self.dim} over GF({self.field.q})"


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
    a, b, c, d = gen.entries
    index = {pt: i for i, pt in enumerate(points)}
    images = []
    for x, y in points:
        nx = f.add(f.mul(a, x), f.mul(b, y))
        ny = f.add(f.mul(c, x), f.mul(d, y))
        if ny:
            pt = (f.mul(nx, f.inv(ny)), 1)
        else:
            pt = (1, 0)
        images.append(index[pt])
    return Permutation(images)


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


def sl2_structure_checks(q: int) -> dict[str, Any]:
    """Structural facts about the Sylow 2-subgroups of SL(2,q) and PSL(2,q), q odd.

    Computes normalizer indices, Sylow counts, and (when q-1, q, q+1 are all
    off the powers of two) the centralizer-order divisibility of 2-elements.
    For q > 13 the normalizer index must be 3 when q = +-3 (mod 8) and 1
    otherwise, in both groups, and the two Sylow counts must agree; those
    facts are enforced, not just reported.
    """
    from .sylow import enumerate_sylows

    char, _ = prime_power_decomposition(q)
    if char == 2:
        raise DomainError("structure checks require odd q")
    sl = _sl2_group(q)
    psl = _psl2_group(q)
    report: dict[str, Any] = {"q": q}
    sl_sys = enumerate_sylows(sl, 2)
    psl_sys = enumerate_sylows(psl, 2)
    report["sl_order"] = sl.order
    report["psl_order"] = psl.order
    report["sl_sylow_order"] = sl_sys.sylow_order
    report["psl_sylow_order"] = psl_sys.sylow_order
    report["sl_normalizer_index"] = sl_sys.normalizer_order // sl_sys.sylow_order
    report["psl_normalizer_index"] = psl_sys.normalizer_order // psl_sys.sylow_order
    # counted on the orbits, so each is checked against its normalizer index
    report["nu2_sl"] = len(sl_sys.sylows)
    report["nu2_psl"] = len(psl_sys.sylows)
    if q > 13:
        expected_index = 3 if q % 8 in (3, 5) else 1
        if report["sl_normalizer_index"] != expected_index:
            raise RuntimeError(
                f"SL(2,{q}) normalizer index {report['sl_normalizer_index']}, expected {expected_index}"
            )
        if report["psl_normalizer_index"] != expected_index:
            raise RuntimeError(
                f"PSL(2,{q}) normalizer index {report['psl_normalizer_index']}, expected {expected_index}"
            )
        if report["nu2_sl"] != report["nu2_psl"]:
            raise RuntimeError(f"nu_2 differs between SL(2,{q}) and PSL(2,{q})")
    report["centralizer_divisibility_checked"] = False
    if is_two_power_neighbor(q) is None:
        for x in sl.p_elements(2):
            c_order = sl.centralizer(x).order
            if c_order % (q - 1) != 0 and c_order % (q + 1) != 0:
                raise RuntimeError(
                    f"2-element {sl.render(x)} of SL(2,{q}) has centralizer order {c_order}, "
                    f"divisible by neither {q - 1} nor {q + 1}"
                )
        report["centralizer_divisibility_checked"] = True
    return report


def wreath_cpcp(p: int) -> FiniteGroup:
    """C_p wr C_p as a permutation group on p^2 points."""
    degree = p * p
    base_cycle = Permutation.from_cycles(degree, [tuple(range(1, p + 1))])
    block_shift = Permutation([(i + p) % degree for i in range(degree)])
    return enumerate_group([base_cycle, block_shift], name=f"C{p} wr C{p}", order=p ** (p + 1))


def _frattini_subgroup(group: FiniteGroup, sub: Subgroup, p: int) -> KeyClosure:
    """Frattini subgroup of a p-subgroup: generated by commutators and p-th powers.

    Every p-th power and commutator is formed on keys; one closure grows by
    those that are not members yet.
    """
    keys = group.keys
    mul = group.ops.mul
    inv = group.ops.inv
    members = [keys[x] for x in sub.indices]
    closure = KeyClosure(group)
    for x in members:
        closure.add(group.key_power(x, p))
    for x in members:
        xinv = inv(x)
        for y in members:
            closure.add(mul(mul(mul(xinv, inv(y)), x), y))
    return closure


def maximal_subgroups_of_p_group(group: FiniteGroup, sub: Subgroup, p: int) -> list[Subgroup]:
    """All index-p subgroups of a p-subgroup with Frattini quotient of rank 2.

    Maximal subgroups of a p-group are the preimages of the index-p subgroups
    of its (elementary abelian) Frattini quotient; for rank 2 each of the p+1
    of them is generated by the Frattini subgroup and one coset
    representative.
    """
    phi = _frattini_subgroup(group, sub, p)
    if sub.order != len(phi.members) * p * p:
        raise DomainError("only p-groups with a rank-2 Frattini quotient are supported")
    keys = group.keys
    maximal: list[KeyClosure] = []
    for x in sub.indices:
        xk = keys[x]
        # with a rank-2 Frattini quotient, x outside phi lies in exactly one
        # maximal subgroup, <phi, x>; one closure per maximal subgroup
        if xk in phi.members or any(xk in m.members for m in maximal):
            continue
        candidate = KeyClosure(group)
        for k in phi.gens + [xk]:
            candidate.add(k)
        maximal.append(candidate)
    if len(maximal) != p + 1:
        raise RuntimeError(f"found {len(maximal)} maximal subgroups, expected {p + 1}")
    return sorted((m.subgroup() for m in maximal), key=lambda m: m.indices)


def gl_wreath_checks(p: int, q: int, group: Optional[FiniteGroup] = None) -> dict[str, Any]:
    """Invariants of the Sylow p-subgroup of GL(p,q) when p exactly divides q-1.

    Verifies order p^(p+1), exponent p^2, and a unique abelian maximal
    subgroup.  When GL(p,q) is beyond the enumeration cap the same invariants
    are checked on C_p wr C_p built directly.  A prebuilt GL(p,q) may be
    passed to reuse its cached Sylow data.
    """
    if not is_prime(p) or p == 2:
        raise HypothesisFailed(f"p must be an odd prime, got {p}")
    if (q - 1) % p != 0 or (q - 1) % (p * p) == 0:
        raise HypothesisFailed(f"p = {p} must exactly divide q-1 = {q - 1}")
    limit = resolve_cap()
    report: dict[str, Any] = {"p": p, "q": q}
    if group is not None or gl_order(p, q) <= limit:
        from .sylow import find_sylow

        if group is None:
            group = _gl_group(p, q)
        sylow = find_sylow(group, p)
    else:
        group = wreath_cpcp(p)
        sylow = group.full_subgroup()
    report["group"] = group.describe()
    report["sylow_order"] = sylow.order
    if sylow.order != p ** (p + 1):
        raise RuntimeError(f"Sylow order {sylow.order}, expected p^(p+1) = {p**(p+1)}")
    report["exponent"] = sylow.exponent()
    if report["exponent"] != p * p:
        raise RuntimeError(f"Sylow exponent {report['exponent']}, expected p^2 = {p * p}")
    maximal = maximal_subgroups_of_p_group(group, sylow, p)
    report["maximal_subgroup_count"] = len(maximal)
    abelian = [m for m in maximal if m.is_abelian()]
    report["abelian_maximal_count"] = len(abelian)
    if len(abelian) != 1:
        raise RuntimeError(f"expected exactly one abelian maximal subgroup, found {len(abelian)}")
    return report
