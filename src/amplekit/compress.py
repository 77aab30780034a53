"""Labeled samples and the unlabeled compression scheme induced by a
representation map."""
from __future__ import annotations

from typing import NamedTuple, Optional

from . import core
from .core import ConceptClass, _Frozen, _setfield, bits_of, coords, popcount
from .errors import ContractError, DecodeError, IntegrityError, ParseError


class Sample(_Frozen):
    """A labeled sample: dom is the queried coordinate set, bits the labels
    (bits ⊆ dom)."""

    __slots__ = _key = ("dom", "bits")

    def __init__(self, dom: int, bits: int):
        core._check_subdomain(dom, core.MAX_WIDTH, ContractError)
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
        xs, _, vs = part.partition("=")
        try:
            # with no leading 'x' or no '=', a field is empty: no decimal
            x = core.parse_decimal(xs[1:] if xs[:1] == "x" else "")
            v = core.parse_decimal(vs)
        except ValueError:
            raise ParseError(f"bad sample entry {part!r}") from None
        if v not in (0, 1):
            raise ParseError(f"label must be 0 or 1 in {part!r}")
        if core._check_coordinate(x, n) <= last:
            raise ParseError("sample coordinates must be strictly ascending")
        last = x
        dom |= 1 << (x - 1)
        if v:
            bits |= 1 << (x - 1)
    return Sample(dom, bits)


def reconstruct_unique(C: ConceptClass, r: dict, s: Sample) -> int:
    """γ(s): the unique consistent concept with r(c) ⊆ dom(s)."""
    core._check_subdomain(s.dom, C.n, ContractError)
    hits = core._decodings(C.concepts, r, s.dom).get(s.bits)
    if hits is None:
        raise ContractError("sample is not realizable by the class")
    if len(hits) != 1:
        raise IntegrityError(
            f"{len(hits)} reconstruction candidates, expected 1 "
            "(not a valid representation map)")
    return hits[0]


class CompressionScheme(_Frozen):
    __slots__ = ("C", "r", "inv")     # inv = r^{-1}, derived
    _key = ("C", "r")

    def __init__(self, C: ConceptClass, r: dict):
        r = dict(r)   # a copy: an edit of the caller's map would leave inv stale
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
        core._check_subdomain(Z, self.C.n, DecodeError)
        if Z not in self.inv:
            raise DecodeError(f"coordinate set {coords(Z)} is not in the map's image")
        return self.inv[Z]


class SchemeReport(NamedTuple):
    ok: bool
    max_size: int
    samples_checked: int
    witness: Optional[Sample] = None
    reason: str = ""


def _supersets_below(R: int, T: int) -> int:
    """#{Y < T : Y ⊇ R}.  Such a Y first differs from T at a coordinate b
    of T, which Y lacks: b is not in R, R's coordinates above b are in T,
    and the coordinates below b not in R are free."""
    return sum(1 << (b.bit_length() - 1 - popcount(R & (b - 1)))
               for b in bits_of(T) if not R & (~T | b) & -b)


def verify_scheme(scheme: CompressionScheme) -> SchemeReport:
    """Round-trip every realizable sample of the scheme's class: γ(s)
    exists and is unique (R2), and |α(s)| ≤ d = vc_dim.  The report is
    that of the loop over every domain Y in numeric order, each pattern in
    `core._decodings` order, up to the first failing sample; the loop runs
    at one domain, exact at every width.

    The verdict is the certificate's, `repmap._certified` (bijection onto
    X(C), C1 and C2), as in `repmap.verify_repmap`.  A certified map is a
    representation map, so every sample decodes uniquely, to a g whose
    r(g) is a set of X(C), of size at most d: the scheme passes.
    Conversely a pass satisfies R2, so r is a non-clashing bijection onto
    sh(C) = X(C) (`repmap._r2_domain`); each cube (t, Y) of C then has one
    sink, γ of the pattern t on the complement of Y, which is C2, and C1
    follows from C2 for a bijection onto X(C) (`verify_repmap`).  So R2's
    domain is searched only on a map that fails, to locate the failure.

    Let Y* be R2's first failing domain, or 2^n on a certified map.  An
    image r(c) with |r(c)| > d is not shattered yet has a preimage, so R2
    fails at or below it (`_r2_domain`'s Z*).  Below Y* every pattern
    decodes uniquely, and a decoding g at Y has r(g) ⊆ Y, so r(g) ≤ Y < Y*
    and |r(g)| ≤ d: no sample fails below Y*, and one fails at Y*, where R2
    does.  So the loop runs at Y* alone, and not at all on a pass.
    Below Y*, each pattern at Y has one decoding, and each c with
    r(c) ⊆ Y decodes its own pattern, so the samples at Y number
    #{c : r(c) ⊆ Y} and the decoded sizes are the |r(c)| with r(c) < Y*.
    Hence `samples_checked` is Σ_c #{Y < Y* : Y ⊇ r(c)} plus the patterns
    scanned at Y*, Σ_c 2^(n - |r(c)|) on a pass; and `max_size` is the
    largest |r(c)| with r(c) < Y* or scanned at Y*.

    The rest of the round trip holds by construction: γ(s) = g has
    r(g) ⊆ dom(s), so α(s) = r(g) ⊆ dom(s); and the scheme's inverse is the
    exact inverse of r, so β(α(s)) = g, which is consistent with s.
    """
    from . import graph, repmap

    C, r = scheme.C, scheme.r
    tags = graph.cube_tags(C)
    # sh(C) is read only to locate the failure of a map that fails
    sh = None if repmap._certified(C, r, tags) else graph._shattered(C, tags.keys())
    Y = 1 << C.n if sh is None else repmap._r2_domain(C, r, sh)
    max_size = max((popcount(v) for v in r.values() if v < Y), default=0)
    checked = sum(_supersets_below(v, Y) for v in r.values())
    if Y >> C.n:
        return SchemeReport(True, max_size, checked)
    d = max(map(popcount, sh))
    for checked, (pat, hits) in enumerate(core._decodings(C.concepts, r, Y).items(),
                                          checked + 1):
        if len(hits) != 1:
            reason = "ambiguous reconstruction" if hits else "no reconstruction"
        elif popcount(r[hits[0]]) > d:
            reason = "compressed set too large"
        else:
            max_size = max(max_size, popcount(r[hits[0]]))
            continue
        return SchemeReport(False, max_size, checked, Sample(Y, pat), reason)
