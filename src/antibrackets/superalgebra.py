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

Products run on basis indices.  :meth:`Signature.mul_row` gives right
multiplication by the basis monomial j as a list over basis indices i: the
entry is 0 when basis[i] * basis[j] dies (degree above the bound, or an odd
letter repeated), and otherwise +(k + 1) or -(k + 1) for sign * basis[k].
The basis is sorted by degree, so only a prefix of it can survive a product
with basis[j]; a row covers just that prefix, and any index past its end
dies by degree.  Rows are built on first use and kept on the signature,
which is the package's one product cache; :meth:`Signature.mul_monomials`
and element products are lookups in them.  Operator arguments are put in
canonical order on indices too, by :meth:`Signature.canonical_indices`.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right

from .rational import format_rational

__all__ = [
    "Signature",
    "AlgebraElement",
    "EndoOp",
    "koszul_sign",
    "shuffles",
    "random_endo",
    "derivation_endo",
    "odd_partial_endo",
    "multiplication_endo",
    "identity_endo",
    "zero_endo",
    "supercommutator",
]


def koszul_sign(sigma, parities) -> int:
    """Sign for reordering (v_1..v_n) into (v_sigma(1)..v_sigma(n)).

    ``sigma`` lists the original (0-based) index placed at each position;
    ``parities`` are the parities of the original sequence.  Each inverted
    pair of odd elements contributes a factor -1.
    """
    if len(sigma) != len(parities):
        raise ValueError("permutation and parity lengths differ")
    sign = 1
    n = len(sigma)
    for i in range(n):
        if not parities[sigma[i]]:
            continue
        for j in range(i + 1, n):
            if sigma[i] > sigma[j] and parities[sigma[j]]:
                sign = -sign
    return sign


def shuffles(k: int, m: int):
    """All C(k+m, k) permutations increasing on the first k and last m slots.

    Returned as tuples of 0-based indices: position i holds sigma(i).
    """
    if k < 0 or m < 0:
        raise ValueError("shuffle block sizes must be non-negative")
    everything = range(k + m)
    result = []
    for first in itertools.combinations(everything, k):
        rest = tuple(v for v in everything if v not in first)
        result.append(first + rest)
    return result


class Signature:
    """Shape of a truncated free superalgebra; owns basis and product caches."""

    def __init__(self, even=2, odd=2, degree_bound=5, commutative=True, unital=True):
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
        self._parities = None  # parity of each basis monomial, by index
        self._prefix = None  # r -> number of basis monomials of degree <= r
        self._rows = None  # j -> mul_row(j) once built, else None

    def _key(self):
        return (self.even, self.odd, self.degree_bound, self.commutative, self.unital)

    def __eq__(self, other):
        return isinstance(other, Signature) and self._key() == other._key()

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
            degrees = [self.degree(m) for m in monomials]
            self._basis = monomials
            self._index = {m: i for i, m in enumerate(monomials)}
            self._parities = [self.parity(m) for m in monomials]
            self._prefix = [
                bisect_right(degrees, r) for r in range(self.degree_bound + 1)
            ]
            self._rows = [None] * len(monomials)
        return self._basis

    def basis_parities(self):
        """Parity of each basis monomial, indexed like :meth:`basis`."""
        self.basis()
        return self._parities

    def _monomials_of_degree(self, d):
        if not self.commutative:
            letters = range(self.even + self.odd)
            return sorted(itertools.product(letters, repeat=d))
        out = []
        max_odds = min(d, self.odd)
        for exps in _exponent_tuples(self.even, d, d):
            rest = d - sum(exps)
            if rest <= max_odds:
                for odds in itertools.combinations(range(self.odd), rest):
                    out.append((exps, odds))
        return sorted(out)

    def index_of(self, m) -> int:
        index = self._index
        if index is None:
            self.basis()
            index = self._index
        return index[m]

    def mul_row(self, j):
        """Right multiplication by basis monomial j, over basis indices.

        Entry i encodes basis[i] * basis[j]: 0 if it dies, else +(k + 1) or
        -(k + 1) for +basis[k] or -basis[k].  The row stops after the last
        basis monomial whose degree leaves room for basis[j]; indices past
        its end die by degree.
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
        basis, index = self._basis, self._index
        b = basis[j]
        row = []
        for i in range(self._prefix[self.degree_bound - self.degree(b)]):
            s, m = self._mul_monomials(basis[i], b)
            row.append(s * (index[m] + 1) if s else 0)
        return row

    def canonical_indices(self, indices):
        """(Koszul sign of the sort, sorted tuple) of basis indices, or
        (0, None) when an odd index repeats."""
        parities = self.basis_parities()
        odd = [i for i in indices if parities[i]]
        sign = 1
        for a, i in enumerate(odd):
            for j in odd[a + 1 :]:
                if i > j:
                    sign = -sign
                elif i == j:
                    return (0, None)
        return (sign, tuple(sorted(indices)))

    def mul_indices(self, indices) -> int:
        """Ordered product of basis monomials given by index, encoded as a row entry."""
        acc = indices[0]
        sign = 1
        for j in indices[1:]:
            row = self.mul_row(j)
            if acc >= len(row):
                return 0
            e = row[acc]
            if e > 0:
                acc = e - 1
            elif e:
                acc = -e - 1
                sign = -sign
            else:
                return 0
        return sign * (acc + 1)

    def mul_monomials(self, a, b):
        """Product of two monomials: (sign, monomial) or (0, None) if it dies.

        The Koszul sign comes from odd letters of ``a`` moving past odd
        letters of ``b``; monomials of degree > D are zero in the quotient.
        """
        try:
            pair = (self.index_of(a), self.index_of(b))
        except KeyError:  # not a basis monomial, e.g. the unit when non-unital
            return self._mul_monomials(a, b)
        e = self.mul_indices(pair)
        if not e:
            return (0, None)
        return (1, self._basis[e - 1]) if e > 0 else (-1, self._basis[-e - 1])

    def _mul_monomials(self, a, b):
        if not self.commutative:
            word = a + b
            if len(word) > self.degree_bound:
                return (0, None)
            return (1, word)
        (ea, oa), (eb, ob) = a, b
        if set(oa) & set(ob):
            return (0, None)
        exps = tuple(x + y for x, y in zip(ea, eb))
        if sum(exps) + len(oa) + len(ob) > self.degree_bound:
            return (0, None)
        inversions = sum(1 for s in oa for t in ob if s > t)
        return ((-1) ** inversions, (exps, tuple(sorted(oa + ob))))

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
        return AlgebraElement(self, terms or {})

    def element_from_indices(self, terms) -> "AlgebraElement":
        """Element from a map basis index -> coefficient; zeros are dropped."""
        basis = self.basis()
        element = AlgebraElement.__new__(AlgebraElement)  # __init__ would filter again
        element.signature = self
        element.terms = {basis[k]: c for k, c in terms.items() if c}
        return element

    def monomial_element(self, m, coeff=1) -> "AlgebraElement":
        return AlgebraElement(self, {m: coeff})

    def one(self) -> "AlgebraElement":
        return self.monomial_element(self.unit())


def _exponent_tuples(slots, total_max, degree):
    """Even-exponent tuples with sum <= degree (the remainder goes to odds)."""
    if slots == 0:
        yield ()
        return
    for first in range(degree + 1):
        for rest in _exponent_tuples(slots - 1, total_max, degree - first):
            yield (first,) + rest


class AlgebraElement:
    """Finite rational-linear combination of basis monomials."""

    __slots__ = ("signature", "terms")

    def __init__(self, signature: Signature, terms):
        self.signature = signature
        self.terms = {m: c for m, c in terms.items() if c}

    def _check(self, other: "AlgebraElement"):
        if self.signature != other.signature:
            raise ValueError("signature mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return AlgebraElement(self.signature, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return AlgebraElement(self.signature, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.signature, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "AlgebraElement":
        if not c:
            return AlgebraElement(self.signature, {})
        return AlgebraElement(self.signature, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            sig = self.signature
            sig.basis()
            index = sig._index
            right = [(sig.mul_row(index[m]), c) for m, c in other.terms.items()]
            out = {}
            for m, c1 in self.terms.items():
                i = index[m]
                for row, c2 in right:
                    e = row[i] if i < len(row) else 0
                    if e > 0:
                        out[e - 1] = out.get(e - 1, 0) + c1 * c2
                    elif e:
                        out[-e - 1] = out.get(-e - 1, 0) - c1 * c2
            return sig.element_from_indices(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def mul_monomial(self, m) -> "AlgebraElement":
        """Right product with a single monomial, cheaper than building an element."""
        sig = self.signature
        j = sig.index_of(m)
        out = {}
        for m1, c1 in self.terms.items():
            e = sig.mul_indices((sig.index_of(m1), j))
            if e > 0:
                out[e - 1] = out.get(e - 1, 0) + c1
            elif e:
                out[-e - 1] = out.get(-e - 1, 0) - c1
        return sig.element_from_indices(out)

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
        parities = {self.signature.parity(m) for m in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            return None
        return parities.pop()

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        sig = self.signature
        bits = []
        for m in sorted(self.terms, key=sig.index_of):
            c = format_rational(self.terms[m])
            name = sig.monomial_str(m)
            if name == "1":
                bits.append(c)
            elif c == "1":
                bits.append(name)
            elif c == "-1":
                bits.append(f"-{name}")
            else:
                bits.append(f"{c}*{name}")
        return " + ".join(bits)


class EndoOp:
    """Linear operator on the algebra, stored by its images on the basis."""

    __slots__ = ("signature", "images", "parity", "_index_view")

    def __init__(self, signature: Signature, images, parity=None):
        self.signature = signature
        self.images = {m: v for m, v in images.items() if not v.is_zero()}
        self.parity = parity
        self._index_view = None
        if parity is not None:
            for m, v in self.images.items():
                want = (signature.parity(m) + parity) % 2
                if any(signature.parity(t) != want for t in v.terms):
                    raise ValueError("image violates the declared parity")

    def index_view(self):
        """Images by basis index: entry i lists (index, coeff) of the image of
        basis[i], in index order, so in degree order; built on first use."""
        view = self._index_view
        if view is None:
            sig = self.signature
            view = [()] * len(sig.basis())
            for m, v in self.images.items():
                view[sig.index_of(m)] = sorted(
                    (sig.index_of(t), c) for t, c in v.terms.items()
                )
            self._index_view = view
        return view

    def apply(self, x) -> AlgebraElement:
        """Image of a monomial or an element."""
        sig = self.signature
        if isinstance(x, AlgebraElement):
            out = {}
            for m, c in x.terms.items():
                img = self.images.get(m)
                if img is not None:
                    for t, v in img.terms.items():
                        out[t] = out.get(t, 0) + c * v
            return AlgebraElement(sig, out)
        return self.images.get(x, sig.element())

    def __call__(self, x) -> AlgebraElement:
        return self.apply(x)

    def compose(self, other: "EndoOp") -> "EndoOp":
        if self.signature != other.signature:
            raise ValueError("signature mismatch")
        parity = None
        if self.parity is not None and other.parity is not None:
            parity = (self.parity + other.parity) % 2
        images = {m: self.apply(v) for m, v in other.images.items()}
        return EndoOp(self.signature, images, parity)

    def __add__(self, other: "EndoOp") -> "EndoOp":
        if self.signature != other.signature:
            raise ValueError("signature mismatch")
        parity = self.parity if self.parity == other.parity else None
        images = dict(self.images)
        for m, v in other.images.items():
            images[m] = images.get(m, self.signature.element()) + v
        return EndoOp(self.signature, images, parity)

    def scale(self, c) -> "EndoOp":
        return EndoOp(
            self.signature,
            {m: v.scale(c) for m, v in self.images.items()},
            self.parity,
        )

    def __sub__(self, other: "EndoOp") -> "EndoOp":
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, EndoOp):
            return NotImplemented
        return self.signature == other.signature and self.images == other.images

    def is_zero(self) -> bool:
        return not self.images


def supercommutator(f: EndoOp, g: EndoOp) -> EndoOp:
    """[f, g] = f g - (-1)^(|f||g|) g f; parities must be declared."""
    if f.parity is None or g.parity is None:
        raise ValueError("supercommutator needs operators of declared parity")
    sign = (-1) ** (f.parity * g.parity)
    return f.compose(g) - g.compose(f).scale(sign)


def identity_endo(signature: Signature) -> EndoOp:
    images = {m: signature.monomial_element(m) for m in signature.basis()}
    return EndoOp(signature, images, parity=0)


def zero_endo(signature: Signature, parity=0) -> EndoOp:
    return EndoOp(signature, {}, parity=parity)


def random_endo(signature: Signature, seed: int, parity="even", density=0.25) -> EndoOp:
    """Seeded sparse operator with integer matrix entries in [-9, 9].

    The requested parity is enforced structurally: a basis monomial of
    parity s only maps into the span of monomials of parity s (even) or
    1 - s (odd).  Each allowed matrix entry is nonzero with the given
    density; the result is deterministic in the seed.
    """
    par = {"even": 0, "odd": 1, 0: 0, 1: 1}[parity]
    rng = random.Random(seed)
    basis = signature.basis()
    by_parity = {
        0: [m for m in basis if signature.parity(m) == 0],
        1: [m for m in basis if signature.parity(m) == 1],
    }
    images = {}
    for m in basis:
        targets = by_parity[(signature.parity(m) + par) % 2]
        terms = {}
        for t in targets:
            if rng.random() >= density:
                continue
            c = rng.randint(-9, 9)
            if c:
                terms[t] = c
        images[m] = AlgebraElement(signature, terms)
    return EndoOp(signature, images, parity=par)


def derivation_endo(signature: Signature) -> EndoOp:
    """The even derivation extending d/dx1 (commutative signatures only)."""
    if not signature.commutative or signature.even < 1:
        raise ValueError("needs a commutative signature with an even generator")
    images = {}
    for m in signature.basis():
        exps, odds = m
        e = exps[0]
        if e:
            lower = ((e - 1,) + exps[1:], odds)
            images[m] = signature.monomial_element(lower, e)
    return EndoOp(signature, images, parity=0)


def odd_partial_endo(signature: Signature) -> EndoOp:
    """The odd derivation d/d(th1); square-zero by construction."""
    if not signature.commutative or signature.odd < 1:
        raise ValueError("needs a commutative signature with an odd generator")
    images = {}
    for m in signature.basis():
        exps, odds = m
        if 0 in odds:
            # th1 sorts first, so no odd letters are crossed removing it
            images[m] = signature.monomial_element(
                (exps, tuple(i for i in odds if i)), 1
            )
    return EndoOp(signature, images, parity=1)


def multiplication_endo(signature: Signature, element: AlgebraElement) -> EndoOp:
    """Left multiplication by a fixed homogeneous element."""
    parity = element.parity()
    if parity is None:
        raise ValueError("multiplier must be homogeneous")
    images = {}
    for m in signature.basis():
        v = element.mul_monomial(m)
        if not v.is_zero():
            images[m] = v
    return EndoOp(signature, images, parity=parity)
