"""Labeled samples and the unlabeled compression scheme induced by a
representation map."""
from __future__ import annotations

from typing import NamedTuple, Optional

from . import core
from .core import ConceptClass, _Frozen, _setfield, coords, popcount
from .errors import ContractError, DecodeError, IntegrityError, ParseError


class Sample(_Frozen):
    """A labeled sample: dom is the queried coordinate set, bits the labels
    (bits ⊆ dom)."""

    __slots__ = _key = ("dom", "bits")

    def __init__(self, dom: int, bits: int):
        if bits & ~dom:
            raise ContractError("sample labels outside its domain")
        _setfield(self, "dom", dom)
        _setfield(self, "bits", bits)

    def consistent(self, c: int) -> bool:
        return c & self.dom == self.bits

    def __str__(self) -> str:
        return format_sample(self)


def format_sample(s: Sample) -> str:
    return ",".join(f"x{x}={(s.bits >> (x - 1)) & 1}" for x in coords(s.dom))


def parse_sample(text: str, n: int = core.MAX_WIDTH) -> Sample:
    """Parse 'x1=0,x3=1'; coordinates must be strictly ascending and lie
    in 1..n."""
    text = text.strip()
    if not text:
        return Sample(0, 0)
    dom = bits = 0
    last = 0
    for part in text.split(","):
        part = part.strip()
        if not part.startswith("x") or "=" not in part:
            raise ParseError(f"bad sample entry {part!r}")
        xs, _, vs = part[1:].partition("=")
        try:
            x = int(xs)
            v = int(vs)
        except ValueError:
            raise ParseError(f"bad sample entry {part!r}") from None
        if v not in (0, 1):
            raise ParseError(f"label must be 0 or 1 in {part!r}")
        if not 1 <= x <= n:
            raise ParseError(f"coordinate {x} outside 1..{n}")
        if x <= last:
            raise ParseError("sample coordinates must be strictly ascending")
        last = x
        dom |= 1 << (x - 1)
        if v:
            bits |= 1 << (x - 1)
    return Sample(dom, bits)


def realizable_samples(C: ConceptClass, dom: int) -> list[Sample]:
    """All samples with the given domain realized by the class, in ascending
    pattern order."""
    if dom & ~C.domain_mask:
        raise ContractError("sample domain outside the class domain")
    return [Sample(dom, p) for p in sorted({c & dom for c in C})]


def reconstruct_unique(C: ConceptClass, r: dict, s: Sample) -> int:
    """γ(s): the unique consistent concept with r(c) ⊆ dom(s)."""
    if not any(s.consistent(c) for c in C):
        raise ContractError("sample is not realizable by the class")
    hits = [c for c in C if s.consistent(c) and r[c] & ~s.dom == 0]
    if len(hits) != 1:
        raise IntegrityError(
            f"{len(hits)} reconstruction candidates, expected 1 "
            "(not a valid representation map)")
    return hits[0]


class CompressionScheme(_Frozen):
    __slots__ = ("C", "r", "inv")     # inv = r^{-1}, derived
    _key = ("C", "r")

    def __init__(self, C: ConceptClass, r: dict):
        # a map missing a concept would surface as a KeyError mid-compress,
        # and one that is not injective would decompress to an arbitrary concept
        core._check_total(C, r)
        inv = core._inverse(r)
        _setfield(self, "C", C)
        _setfield(self, "r", r)
        _setfield(self, "inv", inv)

    def compress(self, s: Sample) -> int:
        """α(s) = r(γ(s)), an unlabeled coordinate set."""
        return self.r[reconstruct_unique(self.C, self.r, s)]

    def decompress(self, Z: int) -> int:
        """β(Z) = r^{-1}(Z)."""
        if Z not in self.inv:
            raise DecodeError(f"coordinate set {coords(Z)} is not in the map's image")
        return self.inv[Z]


class SchemeReport(NamedTuple):
    ok: bool
    max_size: int
    samples_checked: int
    witness: Optional[Sample] = None
    reason: str = ""
    sampled: bool = False       # True when only a seeded selection of domains ran


_FULL_ENUM_CAP = 12
_SAMPLE_SEED = 0          # seeds the domains drawn above the cap
_SAMPLED_DOMAINS = 2048   # draws, with the full and the empty domain added


def verify_scheme(C: ConceptClass, scheme: CompressionScheme) -> SchemeReport:
    """Round-trip every realizable sample: α(s) ⊆ dom(s), |α(s)| ≤ vc_dim,
    and β(α(s)) consistent with s.  All domains are enumerated for n ≤ 12,
    a seeded selection above (the report's `sampled` flag says which).

    Equivalent to the definition but evaluated per domain: bucket concepts by
    r(c) ⊆ dom, then each realized pattern must hit exactly one bucket entry.
    """
    import random

    from . import shatter

    d = shatter.vc_dim(C)
    r, inv = scheme.r, scheme.inv
    sampled = C.n > _FULL_ENUM_CAP
    if not sampled:
        domains = range(1 << C.n)
    else:
        rng = random.Random(_SAMPLE_SEED)
        domains = {rng.randrange(1 << C.n) for _ in range(_SAMPLED_DOMAINS)}
        domains.add(C.domain_mask)
        domains.add(0)
    max_size = 0
    checked = 0

    def fail(dom: int, pat: int, reason: str) -> SchemeReport:
        return SchemeReport(False, max_size, checked, Sample(dom, pat), reason, sampled)

    for dom in domains:
        candidates: dict = {}
        for c in C:
            if r[c] & ~dom == 0:
                key = c & dom
                if key in candidates:
                    return fail(dom, key, "ambiguous reconstruction")
                candidates[key] = c
        for pat in {c & dom for c in C}:
            checked += 1
            g = candidates.get(pat)
            if g is None:
                return fail(dom, pat, "no reconstruction")
            a = r[g]
            if a & ~dom:
                return fail(dom, pat, "compressed set leaves dom")
            if popcount(a) > d:
                return fail(dom, pat, "compressed set too large")
            if inv[a] & dom != pat:
                return fail(dom, pat, "round trip mismatch")
            max_size = max(max_size, popcount(a))
    return SchemeReport(True, max_size, checked, sampled=sampled)
