"""Finite-dimensional free superalgebras truncated by total degree.

Two variants share one interface: the free graded-commutative superalgebra
on p even and q odd generators, and the free associative superalgebra on the
same generators.  Monomials above the degree bound are identified with zero,
i.e., we compute in the quotient by the ideal of elements of degree > D;
this keeps every space finite-dimensional while preserving all identities.

Monomials are plain tuples.  Commutative case: ``(exps, odds)`` with ``exps``
a length-p tuple of exponents and ``odds`` a sorted tuple of odd-generator
indices (odd generators square to zero).  Associative case: a word, i.e., a
tuple of generator indices with 0..p-1 even and p..p+q-1 odd.

Below the public boundary every key is a basis index: an
:class:`AlgebraElement` holds ``{basis index: nonzero coeff}``.  Operators
on the algebra, the linear ones included, live in :mod:`.multilinear`.
Monomials are converted once, where a caller passes them in
(:meth:`Signature.element`, :meth:`Signature.monomial_element`,
:meth:`Signature.index_of`) or reads them out (``repr``,
:meth:`Signature.monomial_str`).

Products run on basis indices and leave :class:`Signature` in three forms:
:meth:`Signature.mul_indices` gives an ordered product of basis monomials
as (sign, index), or (0, None) when it dies (degree above the bound, or an
odd letter repeated); :meth:`Signature.subset_products` gives that pair for
every sub-block of a tuple at once, listed by bit mask of positions; and
:meth:`Signature.mul_into` adds a combination times a basis monomial into
an ``{index: coeff}`` dict.  All
three read rows of right multiplication by one basis monomial, in an encoding
internal to the class; a row covers the degree prefix of the basis that can
survive the product.  Rows are built on first use and kept on the signature,
which is the package's one product cache.  The rows of the unit and of the
generators come from the one monomial product rule,
:meth:`Signature.mul_monomials`; a row of degree >= 2 is composed from a
generator's row and a row one degree lower, as the truncated algebra is
associative, with no monomial built.  Operator arguments are put in
canonical order on indices too, by :meth:`Signature.canonical_indices`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from operator import add

from .rational import format_rational

__all__ = ["Signature", "AlgebraElement"]


class Signature:
    """Shape of a truncated free superalgebra; owns basis and product caches.

    Besides the product rows (one per basis monomial, bounded by the basis),
    a signature keeps the per-tuple data every operator on it shares:
    ``_tuples``, the canonical index tuples of each (arity, bound);
    ``_plans``, the shuffle plan of each canonical index tuple of total
    degree within the bound; ``_mu``, the one multiplication operator mu_n
    of each n asked for; and ``_canonical``, the sign and canonical index
    tuple of each tuple of monomial operator arguments, capped in size.
    :mod:`.multilinear` fills all four and bounds ``_plans`` and
    ``_canonical``.
    """

    def __init__(self, even=2, odd=2, degree_bound=5, commutative=True, unital=True):
        for name, size in (("even", even), ("odd", odd),
                           ("degree_bound", degree_bound)):
            if type(size) is not int:
                raise ValueError(f"{name} must be an int, got {size!r}")
        if even < 0 or odd < 0:
            raise ValueError("generator counts must be non-negative")
        if degree_bound < 1:
            raise ValueError("degree bound must be >= 1")
        self.even = even
        self.odd = odd
        self.degree_bound = degree_bound
        self.commutative = commutative
        self.unital = unital
        self._basis = None
        self._index = None
        self._parities = self._degrees = None  # of each basis monomial, by index
        self._rows = None  # j -> mul_row(j) once built, else None
        # e -> the (sign, index) pair a row entry e encodes, one object each
        self._signed = None
        self._tuples = {}  # (arity, bound) -> canonical index tuples
        self._plans = {}  # canonical index tuple -> its shuffle plan
        self._mu = {}  # n -> the operator mu_n
        self._canonical = {}  # monomial argument tuple -> (sign, canonical)

    def _key(self):
        return (self.even, self.odd, self.degree_bound, self.commutative, self.unital)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Signature) and self._key() == other._key()
        )

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Signature(even={self.even}, odd={self.odd}, "
            f"degree_bound={self.degree_bound}, commutative={self.commutative}, "
            f"unital={self.unital})"
        )

    # -- monomials ---------------------------------------------------------

    def unit(self):
        if not self.unital:
            raise ValueError("non-unital signature has no unit monomial")
        return ((0,) * self.even, ()) if self.commutative else ()

    def degree(self, m) -> int:
        if self.commutative:
            exps, odds = m
            return sum(exps) + len(odds)
        return len(m)

    def parity(self, m) -> int:
        if self.commutative:
            return len(m[1]) % 2
        return sum(1 for g in m if g >= self.even) % 2

    def even_generator(self, i: int):
        """Degree-1 monomial for the i-th even generator (0-based)."""
        if not 0 <= i < self.even:
            raise ValueError("even generator index out of range")
        if self.commutative:
            exps = tuple(1 if j == i else 0 for j in range(self.even))
            return (exps, ())
        return (i,)

    def odd_generator(self, i: int):
        if not 0 <= i < self.odd:
            raise ValueError("odd generator index out of range")
        if self.commutative:
            return ((0,) * self.even, (i,))
        return (self.even + i,)

    def basis(self):
        """All monomials of degree <= D (>= 1 when non-unital), canonically ordered.

        Order: degree first, then even exponents lexicographically, then odd
        subsets lexicographically (word order in the associative case).
        """
        if self._basis is None:
            monomials = []
            lowest = 0 if self.unital else 1
            for d in range(lowest, self.degree_bound + 1):
                monomials.extend(self._monomials_of_degree(d))
            self._basis = monomials
            self._index = {m: i for i, m in enumerate(monomials)}
            self._parities = [self.parity(m) for m in monomials]
            self._degrees = [self.degree(m) for m in monomials]
            self._rows = [None] * len(monomials)
            # entry e is (1, e - 1) for e > 0 and (-1, -e - 1) for e < 0
            self._signed = ([(0, None)] + [(1, k) for k in range(len(monomials))]
                            + [(-1, k) for k in reversed(range(len(monomials)))])
        return self._basis

    def basis_parities(self):
        """Parity of each basis monomial, indexed like :meth:`basis`."""
        self.basis()
        return self._parities

    def basis_degrees(self):
        """Degree of each basis monomial, indexed like :meth:`basis`."""
        self.basis()
        return self._degrees

    def _monomials_of_degree(self, d):
        if not self.commutative:
            letters = range(self.even + self.odd)
            return sorted(itertools.product(letters, repeat=d))
        out = []
        max_odds = min(d, self.odd)
        for exps in _exponent_tuples(self.even, d):
            rest = d - sum(exps)
            if rest <= max_odds:
                for odds in itertools.combinations(range(self.odd), rest):
                    out.append((exps, odds))
        return sorted(out)

    def index_of(self, m) -> int:
        """Basis index of monomial m; ValueError if m is not a basis monomial."""
        index = self._index
        if index is None:
            self.basis()
            index = self._index
        try:
            return index[m]
        except KeyError:
            raise ValueError(f"{m!r} is not a basis monomial of {self!r}") from None

    def mul_row(self, j):
        """Right multiplication by basis monomial j, over basis indices.

        Entry i encodes basis[i] * basis[j]: 0 if it dies, else +(k + 1) or
        -(k + 1) for +basis[k] or -basis[k].  The row stops after the last
        basis monomial whose degree leaves room for basis[j]; indices past
        its end die by degree.  Rows of degree >= 2 are composed from two
        other rows (:meth:`_build_row`).
        """
        rows = self._rows
        if rows is None:
            self.basis()
            rows = self._rows
        row = rows[j]
        if row is None:
            row = rows[j] = self._build_row(j)
        return row

    def _build_row(self, j):
        """Row j by :meth:`mul_monomials` at degree <= 1.  Above, basis[j]
        is g b' up to sign (:meth:`_split_letter`), and as a (g b') = (a g) b'
        in the associative quotient, entry i is entry |row(g)[i]| - 1 of
        row(b'), signed by both entries and by the product g b' (+1 for
        this g)."""
        basis, index = self._basis, self._index
        b = basis[j]
        size = bisect_right(self._degrees, self.degree_bound - self._degrees[j])
        if self._degrees[j] < 2:
            return [s * (index[m] + 1) if s else 0 for s, m in
                    map(self.mul_monomials, basis[:size], itertools.repeat(b))]
        g, rest = self._split_letter(b)
        s, _ = self.mul_monomials(g, rest)
        left = self.mul_row(index[g])
        right = self.mul_row(index[rest])
        if s < 0:
            right = [-e for e in right]
        return [right[e - 1] if e > 0 else -right[-e - 1] if e else 0
                for e in itertools.islice(left, size)]

    def _split_letter(self, m):
        """(g, m') with m = g m' up to sign, g the smallest letter of a
        monomial of degree >= 1: its first even letter, else its first odd
        one (the first letter of a word), which moves past no odd letter."""
        if not self.commutative:
            return m[:1], m[1:]
        exps, odds = m
        for p, e in enumerate(exps):
            if e:
                return (self.even_generator(p),
                        (exps[:p] + (e - 1,) + exps[p + 1:], odds))
        return ((0,) * self.even, odds[:1]), (exps, odds[1:])

    def canonical_indices(self, indices):
        """(Koszul sign of the sort, sorted tuple) of basis indices, or
        (0, None) when an odd index repeats."""
        parities = self.basis_parities()
        odd = [i for i in indices if parities[i]]
        if len(odd) < 2:
            return (1, tuple(sorted(indices)))
        sign = 1
        for a, i in enumerate(odd):
            for j in odd[a + 1 :]:
                if i > j:
                    sign = -sign
                elif i == j:
                    return (0, None)
        return (sign, tuple(sorted(indices)))

    def mul_indices(self, indices):
        """Ordered product of basis monomials by index: (sign, index) or (0, None)."""
        acc = indices[0]
        sign = 1
        for j in indices[1:]:
            row = self.mul_row(j)
            e = row[acc] if acc < len(row) else 0
            if not e:
                return (0, None)
            if e < 0:
                e, sign = -e, -sign
            acc = e - 1
        return (sign, acc)

    def subset_products(self, indices):
        """:meth:`mul_indices` of every sub-block of ``indices``, listed by
        bit mask of positions (entry 0, the empty block, is (0, None)); an
        entry is the one without its highest position times that argument.
        Equal entries are one object, one per basis index and sign."""
        self.basis()
        signed = self._signed
        table = [signed[0]]
        for j in indices:
            row = self.mul_row(j)
            limit = len(row)
            table.append(signed[j + 1])
            table += [signed[s * row[acc]] if s and acc < limit else signed[0]
                      for s, acc in table[1 : len(table) - 1]]
        return table

    def mul_into(self, acc, pairs, j, coeff):
        """Add coeff * (sum of v * basis[i] over the (i, v) pairs) * basis[j]
        into the dict ``acc`` of {index: coeff}; the pairs need not be sorted.

        Row j is read once; an i past its end is skipped, as that product
        dies by degree.
        """
        row = self.mul_row(j)
        limit = len(row)
        for i, v in pairs:
            if i < limit:
                e = row[i]
                if e > 0:
                    acc[e - 1] = acc.get(e - 1, 0) + coeff * v
                elif e:
                    acc[-e - 1] = acc.get(-e - 1, 0) - coeff * v

    def mul_monomials(self, a, b):
        """Product of two monomials: (sign, monomial) or (0, None) if it dies.

        The Koszul sign comes from odd letters of ``a`` moving past odd
        letters of ``b``; monomials of degree > D are zero in the quotient.
        The rows of degree <= 1 are built from this rule, one call per
        entry, so the degree is tested first and a side with no odd letter
        takes no sign.
        """
        if not self.commutative:
            word = a + b
            if len(word) > self.degree_bound:
                return (0, None)
            return (1, word)
        (ea, oa), (eb, ob) = a, b
        exps = tuple(map(add, ea, eb))
        if sum(exps) + len(oa) + len(ob) > self.degree_bound:
            return (0, None)
        if not (oa and ob):
            return (1, (exps, oa or ob))
        if not set(oa).isdisjoint(ob):
            return (0, None)
        inversions = sum(s > t for s in oa for t in ob)
        return (-1 if inversions & 1 else 1, (exps, tuple(sorted(oa + ob))))

    def monomial_str(self, m) -> str:
        """Text form with generators x1..xp (even) and th1..thq (odd)."""
        if self.commutative:
            exps, odds = m
            parts = []
            for i, e in enumerate(exps):
                if e == 1:
                    parts.append(f"x{i + 1}")
                elif e > 1:
                    parts.append(f"x{i + 1}^{e}")
            parts.extend(f"th{i + 1}" for i in odds)
        else:
            parts = [
                f"x{g + 1}" if g < self.even else f"th{g - self.even + 1}"
                for g in m
            ]
        return "*".join(parts) if parts else "1"

    def element(self, terms=None) -> "AlgebraElement":
        """Element from a map monomial -> coefficient."""
        terms = terms or {}
        return AlgebraElement(self, {self.index_of(m): c for m, c in terms.items()})

    def monomial_element(self, m, coeff=1) -> "AlgebraElement":
        return AlgebraElement(self, {self.index_of(m): coeff})

    def one(self) -> "AlgebraElement":
        return self.monomial_element(self.unit())


def _exponent_tuples(slots, degree):
    """Even-exponent tuples with sum <= degree (the remainder goes to odds)."""
    if slots == 0:
        yield ()
        return
    for first in range(degree + 1):
        for rest in _exponent_tuples(slots - 1, degree - first):
            yield (first,) + rest


class AlgebraElement:
    """Finite rational-linear combination of basis monomials, as
    ``terms = {basis index: nonzero coeff}``.

    The constructor runs on every product and every value read, so it does
    not check its keys: they must be basis indices.  :meth:`Signature.element`
    is the checked entry point for ``{monomial: coeff}``.
    """

    __slots__ = ("signature", "terms")

    def __init__(self, signature: Signature, terms):
        self.signature = signature
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def _of(cls, signature: Signature, terms: dict) -> "AlgebraElement":
        """The element holding the dict ``terms`` itself, unfiltered: every
        coefficient in it must be nonzero, and the caller must not keep it."""
        element = cls.__new__(cls)
        element.signature = signature
        element.terms = terms
        return element

    def _check(self, other: "AlgebraElement"):
        if self.signature != other.signature:
            raise ValueError("signature mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return AlgebraElement(self.signature, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return AlgebraElement(self.signature, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.signature, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "AlgebraElement":
        if not c:
            return AlgebraElement(self.signature, {})
        return AlgebraElement(self.signature, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            sig = self.signature
            out = {}
            for j, c in other.terms.items():
                sig.mul_into(out, self.terms.items(), j, c)
            return AlgebraElement(sig, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def mul_monomial(self, m) -> "AlgebraElement":
        """Right product with a single monomial, cheaper than building an element."""
        sig = self.signature
        out = {}
        sig.mul_into(out, self.terms.items(), sig.index_of(m), 1)
        return AlgebraElement(sig, out)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    def __hash__(self):
        return hash((self.signature, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self):
        """0 or 1 for a homogeneous element, None for mixed, 0 for zero."""
        basis_parities = self.signature.basis_parities()
        parities = {basis_parities[k] for k in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            return None
        return parities.pop()

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        sig = self.signature
        basis = sig.basis()
        bits = []
        for k in sorted(self.terms):
            c = format_rational(self.terms[k])
            name = sig.monomial_str(basis[k])
            if name == "1":
                bits.append(c)
            elif c == "1":
                bits.append(name)
            elif c == "-1":
                bits.append(f"-{name}")
            else:
                bits.append(f"{c}*{name}")
        return " + ".join(bits)
