"""Finite p-local spectra as homology data.

A spectrum enters the package as its reduced rational Betti numbers (degree ->
rank) plus opaque markers for finite p-torsion summands.  That is all the
Iwasawa-theoretic invariants depend on: torsion markers are carried only so a
torsion-free replacement can strip them, and every exported quantity is
computed from the betti map alone.  Two data objects related by replacing a
spectrum with its torsion-free wedge replacement therefore always produce
identical outputs; no finer notion of equivalence is modeled.

p-adically completed K-theory splits into 2(p-1) eigenspaces, indexed by a
cohomological degree (0 or -1) and a weight j mod p-1.  Each eigenspace of
each spectrum here is an Iwasawa module with a linear-factor characteristic
polynomial; eigenspace_charpoly assembles it from the betti map, with an even
cell in degree 2i contributing exponent i and an odd cell in degree 2i-1
contributing exponent i (the suspension-consistent convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .iwalg import CharPoly, PrimeMismatch, invariants_of
from .padic import OddPrime


@dataclass(frozen=True)
class FiniteSpectrumData:
    p: int
    betti: dict[int, int]
    torsion: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "p", OddPrime(self.p))
        for d, r in self.betti.items():
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"betti degree {d!r} is not an int")
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise ValueError(f"betti rank at degree {d} must be an int >= 1, got {r!r}")
        for d in self.torsion:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"torsion degree {d!r} is not an int")
        object.__setattr__(self, "betti", dict(sorted(self.betti.items())))
        object.__setattr__(self, "torsion", dict(sorted(self.torsion.items())))


@dataclass(frozen=True)
class EigenspaceKey:
    cohomological_degree: int  # 0 or -1
    j: int

    def __post_init__(self):
        if self.cohomological_degree not in (0, -1):
            raise ValueError(f"cohomological degree must be 0 or -1, got {self.cohomological_degree!r}")
        if not isinstance(self.j, int) or isinstance(self.j, bool):
            raise ValueError(f"eigenspace weight must be an int, got {self.j!r}")


def _as_key(key) -> EigenspaceKey:
    if isinstance(key, EigenspaceKey):
        return key
    degree, j = key
    return EigenspaceKey(degree, j)


def eigenspace_keys(p) -> tuple[EigenspaceKey, ...]:
    """The 2(p-1) canonical keys: degree 0 then -1, j ascending in [0, p-2]."""
    p = OddPrime(p)
    return tuple(EigenspaceKey(deg, j) for deg in (0, -1) for j in range(p - 1))


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
    return FiniteSpectrumData(
        X.p,
        {d + k: r for d, r in X.betti.items()},
        {d + k: m for d, m in X.torsion.items()},
    )


def eigenspace_charpoly(X: FiniteSpectrumData, key) -> CharPoly:
    """Characteristic polynomial of the (degree, j) eigenspace of X.

    Degree 0 collects the even cells, degree -1 the odd cells; a cell in
    degree 2i or 2i-1 lands in weight i mod p-1 with factor exponent i and
    multiplicity its rank.  Any integer j is accepted and reduced mod p-1.
    """
    key = _as_key(key)
    p = X.p
    j = key.j % (p - 1)
    factors = []
    for d, r in X.betti.items():
        if key.cohomological_degree == 0:
            if d % 2 != 0:
                continue
            i = d // 2
        else:
            if d % 2 == 0:
                continue
            i = (d + 1) // 2
        if (i - j) % (p - 1) == 0:
            factors.append((i, r))
    return CharPoly(p, tuple(factors))


def total_lambda(X: FiniteSpectrumData) -> int:
    """Alternating sum of eigenspace lambda invariants (degree 0 minus
    degree -1).  Equals the Euler characteristic; computed the long way
    through the eigenspace polynomials on purpose."""
    total = 0
    for key in eigenspace_keys(X.p):
        sign = 1 if key.cohomological_degree == 0 else -1
        total += sign * invariants_of(eigenspace_charpoly(X, key)).lambda_
    return total


def mu_invariant(X: FiniteSpectrumData, key) -> int:
    return invariants_of(eigenspace_charpoly(X, key)).mu


def degree_window(X: FiniteSpectrumData):
    """(alpha, beta), the extreme degrees carrying rational homology, or
    None for a rationally trivial spectrum."""
    if not X.betti:
        return None
    degrees = X.betti.keys()
    return min(degrees), max(degrees)
