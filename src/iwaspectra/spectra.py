"""Finite p-local spectra as homology data.

A spectrum enters the package as its reduced rational Betti numbers (degree ->
rank) plus opaque markers for finite p-torsion summands.  That is all the
Iwasawa-theoretic invariants depend on: torsion markers are carried only so a
torsion-free replacement can strip them, and every exported quantity is
computed from the betti map alone.  Two data objects related by replacing a
spectrum with its torsion-free wedge replacement therefore always produce
identical outputs; no finer notion of equivalence is modeled.

p-adically completed K-theory splits into 2(p-1) eigenspaces, keyed by the
pair (degree, j) of a cohomological degree (0 or -1) and a weight j mod p-1.
Each eigenspace of each spectrum here is an Iwasawa module with a
linear-factor characteristic polynomial, assembled from the betti map: an
even cell in degree 2i contributes exponent i, and an odd cell in degree
2i-1 contributes exponent i (the suspension-consistent convention).  The
map of nonzero eigenspace polynomials, FiniteSpectrumData.eigenspaces, is
built once per spectrum, in one pass over its cells, the first time it is
read; eigenspace_charpoly, total_lambda and k1.wedge_order only read it.
It is the one index a spectrum keeps: the cells at one degree mod 2(p-1)
are the factors of one eigenspace.  betti and torsion are read-only
mappings, so the map cannot go stale.
"""

from collections.abc import Mapping
from functools import cache, cached_property
from types import MappingProxyType

from .iwalg import CharPoly, _pair
from .padic import Immutable, OddPrime, _int


class PrimeMismatch(ValueError):
    """Spectra over different primes cannot be combined."""


class FiniteSpectrumData(Immutable):
    """Cell ranks (degree -> rank >= 1) and torsion markers (degree -> label)
    at the odd prime p, both held sorted by degree in read-only mappings.
    Instances keep a __dict__ for the cached eigenspace map."""

    _fields = ("p", "betti", "torsion")

    def __init__(self, p: int, betti: Mapping[int, int],
                 torsion: Mapping[int, str] = MappingProxyType({})):
        self._init(p, betti, torsion)

    def __post_init__(self):
        # the cells before the prime: a bad cell and a bad prime report the cell
        for what, cells in (("betti", self.betti), ("torsion", self.torsion)):
            if not isinstance(cells, Mapping):
                raise TypeError(f"{what} must be a Mapping, got {type(cells).__name__}")
        for d, r in self.betti.items():
            _int(d, "betti degree")
            _int(r, f"betti rank at degree {d}", 1)
        for d in self.torsion:
            _int(d, "torsion degree")
        object.__setattr__(self, "p", OddPrime(self.p))
        object.__setattr__(self, "betti", MappingProxyType(dict(sorted(self.betti.items()))))
        object.__setattr__(self, "torsion", MappingProxyType(dict(sorted(self.torsion.items()))))

    __hash__ = None  # the mappings are unhashable

    @cached_property
    def eigenspaces(self) -> Mapping[tuple[int, int], CharPoly]:
        """The nonzero eigenspace polynomials, keyed (degree, j) with j in
        [0, p-2]: degree 0 collects the even cells, degree -1 the odd cells,
        and a cell in degree 2i or 2i-1 lands in weight i mod p-1 with factor
        exponent i and multiplicity its rank.  Built in one pass over the
        cells; not a field, so equality and repr ignore it."""
        factors: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for d, r in self.betti.items():
            i = (d + 1) // 2  # i both for d = 2i and for d = 2i - 1
            factors.setdefault((0 if d % 2 == 0 else -1, i % (self.p - 1)), []).append((i, r))
        return MappingProxyType({key: CharPoly(self.p, tuple(f)) for key, f in factors.items()})


def eigenspace_keys(p) -> tuple[tuple[int, int], ...]:
    """The 2(p-1) canonical (degree, j) keys: degree 0 then -1, j ascending
    in [0, p-2]."""
    p = OddPrime(p)
    return tuple((degree, j) for degree in (0, -1) for j in range(p - 1))


def euler_characteristic(X: FiniteSpectrumData) -> int:
    return sum(r if d % 2 == 0 else -r for d, r in X.betti.items())


def dual(X: FiniteSpectrumData) -> FiniteSpectrumData:
    """Spanier-Whitehead dual at the data level: degrees negate."""
    return FiniteSpectrumData(
        X.p,
        {-d: r for d, r in X.betti.items()},
        {-d: m for d, m in X.torsion.items()},
    )


def strip_torsion(X: FiniteSpectrumData) -> FiniteSpectrumData:
    """The torsion-free replacement of X: the same cells, no torsion markers."""
    return FiniteSpectrumData(X.p, dict(X.betti))


def wedge(X: FiniteSpectrumData, Y: FiniteSpectrumData) -> FiniteSpectrumData:
    if X.p != Y.p:
        raise PrimeMismatch(f"cannot wedge spectra at p={X.p} and p={Y.p}")
    betti = dict(X.betti)
    for d, r in Y.betti.items():
        betti[d] = betti.get(d, 0) + r
    torsion = dict(X.torsion)
    for d, m in Y.torsion.items():
        torsion[d] = f"{torsion[d]}+{m}" if d in torsion else m
    return FiniteSpectrumData(X.p, betti, torsion)


def suspend(X: FiniteSpectrumData, k: int = 1) -> FiniteSpectrumData:
    _int(k, "k")
    return FiniteSpectrumData(
        X.p,
        {d + k: r for d, r in X.betti.items()},
        {d + k: m for d, m in X.torsion.items()},
    )


@cache
def _one(p: int) -> CharPoly:
    """The empty product, shared by every zero eigenspace at p."""
    return CharPoly(p)


def eigenspace_charpoly(X: FiniteSpectrumData, key) -> CharPoly:
    """Characteristic polynomial of the (degree, j) eigenspace of X, read
    from X.eigenspaces.  Any integer j is accepted and reduced mod p-1; a
    zero eigenspace is the shared constant polynomial 1."""
    degree, j = _pair(key, "eigenspace key")
    if _int(degree, "cohomological degree") not in (0, -1):
        raise ValueError(f"cohomological degree must be 0 or -1, got {degree!r}")
    f = X.eigenspaces.get((degree, _int(j, "eigenspace weight") % (X.p - 1)))
    return _one(X.p) if f is None else f


def total_lambda(X: FiniteSpectrumData) -> int:
    """Alternating sum of eigenspace lambda invariants (degree 0 minus
    degree -1), over the nonzero eigenspaces: O(cells).  Equals the Euler
    characteristic; computed the long way through the eigenspace
    polynomials on purpose.  TypeError, worded like padic._int's, for an X
    that is not a FiniteSpectrumData."""
    if not isinstance(X, FiniteSpectrumData):
        raise TypeError(f"X must be a FiniteSpectrumData, got {type(X).__name__}")
    return sum(f.degree if degree == 0 else -f.degree
               for (degree, _), f in X.eigenspaces.items())


def degree_window(X: FiniteSpectrumData):
    """(alpha, beta), the extreme degrees carrying rational homology, or
    None for a rationally trivial spectrum."""
    if not X.betti:
        return None
    degrees = X.betti.keys()
    return min(degrees), max(degrees)
