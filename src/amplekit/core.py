"""Bit-level concepts, concept classes, cubes, and the structural operators on them.

Concepts over a domain of n coordinates (labelled 1..n) are plain ints: bit
i-1 of the int is coordinate i.  Coordinate sets are int bitmasks with the
same convention.  Everything is immutable; operations return new values.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .errors import ContractError, DomainError, EmptyClassError, ParseError

MAX_WIDTH = 24


def bit(x: int) -> int:
    """Mask of the single coordinate x of 1..MAX_WIDTH."""
    return 1 << (_check_coordinate(x, MAX_WIDTH, DomainError) - 1)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def coords(mask: int) -> list[int]:
    """Ascending coordinate labels of a coordinate set of 1..MAX_WIDTH."""
    return [b.bit_length() for b in bits_of(_check_subdomain(mask, MAX_WIDTH))]


def mask_of(xs: Iterable[int]) -> int:
    """Mask of the coordinates xs of 1..MAX_WIDTH."""
    m = 0
    for x in xs:
        m |= bit(x)
    return m


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits_of(mask: int) -> list[int]:
    """Single-bit masks of a bitmask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


def levelwise(doms: list[int], grow) -> dict:
    """Grow a downward-closed family of coordinate sets level by level.

    Starting from the empty set, a candidate Z is put to ``grow(Z, family)``
    only when every facet Z - {x} is already a member; a truthy answer admits
    Z with that answer as its value.  ``doms`` holds the single-bit masks the
    members are built from.  Returns member -> value.
    """
    family: dict = {}
    value = grow(0, family)
    if not value:
        return family
    family[0] = value
    frontier = [0]
    while frontier:
        nxt = []
        for Y in frontier:
            for b in doms:
                # Z is proposed once, by its facet without its top coordinate
                if b <= Y:
                    continue
                Z = Y | b
                if all(Z ^ f in family for f in bits_of(Y)):
                    value = grow(Z, family)
                    if value:
                        family[Z] = value
                        nxt.append(Z)
        frontier = nxt
    return family


def concept_to_string(c: int, n: int) -> str:
    """n-character 0/1 string, leftmost char = coordinate 1."""
    # the leading 1 pads to n digits; the slice drops it and reverses
    return format(c & ((1 << n) - 1) | 1 << n, "b")[:0:-1]


def concept_from_string(s: str, line: Optional[int] = None) -> int:
    """The concept of a 0/1 string, leftmost char = coordinate 1; its
    ParseError names the file line when given."""
    # int() alone would also take '_', signs, spaces and non-ASCII digits;
    # s.strip("01") is empty exactly when every character is 0 or 1
    if s.strip("01"):
        ch = next(ch for ch in s if ch not in "01")
        raise ParseError(f"invalid character {ch!r} in concept string {s!r}", line=line)
    return int(s[::-1], 2) if s else 0


def _concept_of_width(s: str, n: int, line: Optional[int] = None) -> int:
    """concept_from_string for a concept string that must have n characters."""
    if len(s) != n:
        raise ParseError(f"concept {s!r} has width {len(s)}, expected {n}", line=line)
    return concept_from_string(s, line)


def _check_coordinate(x: int, n: int, error=ParseError) -> int:
    """x, when it is a coordinate of the domain 1..n; otherwise the error
    ``coordinate x outside 1..n`` of the given class."""
    if not 1 <= x <= n:
        raise error(f"coordinate {x} outside 1..{n}")
    return x


def _check_subdomain(Y: int, n: int, error=DomainError) -> int:
    """Y, when it is a coordinate set of the domain 1..n; otherwise the
    error of `_check_coordinate` for its least coordinate above n.  A
    negative Y has every coordinate above some k, so ``Y >> n`` is nonzero
    and its lowest bit gives the least one at once: iterating such a mask
    bit by bit, as `bits_of` does, would never end."""
    if high := Y >> n:
        _check_coordinate((high & -high).bit_length() + n, n, error)
    return Y


def parse_decimal(s: str) -> int:
    """The value of a string of ASCII digits, surrounding whitespace
    stripped; ValueError for anything else.  int() alone would also take
    signs, '_' and non-ASCII digits."""
    digits = s.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal number: {s!r}")
    return int(digits)


# sets a field of a _Frozen value, once, in its __init__
_setfield = object.__setattr__


class _Frozen:
    """Base of the validated value classes: slots set once in ``__init__``
    (through ``_setfield``) that refuse assignment afterwards.  Equality,
    hash, repr and copying use the fields named in ``_key``, two or more."""

    __slots__ = ()
    _key: tuple = ()

    def __init_subclass__(cls):
        # `_values` reads the fields of `_key` as one tuple
        cls._values = property(attrgetter(*cls._key))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{k}={getattr(self, k)!r}" for k in self._key) + ")")

    def __reduce__(self):
        # rebuilt through __init__, so that copies and unpickled values are
        # validated and derived like the original
        return self.__class__, self._values


def _check_domain_width(n: int) -> None:
    """The width rule of a domain, for a concept class and a shelling."""
    if not 0 <= n <= MAX_WIDTH:
        raise DomainError(f"domain width {n} outside 0..{MAX_WIDTH}")


class ConceptClass(_Frozen):
    """A nonempty, duplicate-free concept class in canonical (ascending) order.

    concept_set holds the same concepts as ``concepts``, for constant-time
    membership tests.
    """

    __slots__ = ("n", "concepts", "concept_set")
    _key = ("n", "concepts")

    def __init__(self, n: int, concepts: Iterable[int]):
        _check_domain_width(n)
        members = frozenset(concepts)
        cs = tuple(sorted(members))
        if not cs:
            raise EmptyClassError("a concept class must be nonempty")
        _check_subdomain(cs[0] | cs[-1], n)
        _setfield(self, "n", n)
        _setfield(self, "concepts", cs)
        _setfield(self, "concept_set", members)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "ConceptClass":
        strings = list(strings)
        if not strings:
            raise EmptyClassError("no concept strings given")
        n = len(strings[0])
        return cls(n, tuple(_concept_of_width(s, n) for s in strings))

    @property
    def size(self) -> int:
        return len(self.concepts)

    @property
    def domain_mask(self) -> int:
        return full_mask(self.n)

    def support(self) -> int:
        """Mask of coordinates on which at least two concepts differ."""
        lo = self.concepts[0]
        acc = 0
        for c in self.concepts:
            acc |= c ^ lo
        return acc

    def strings(self) -> list[str]:
        return [concept_to_string(c, self.n) for c in self.concepts]

    def is_full_cube(self) -> bool:
        return len(self.concepts) == 1 << self.n

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.concepts)

    def __contains__(self, c: int) -> bool:
        return c in self.concept_set


class Cube(_Frozen):
    """A subcube of the hypercube: fixed bits in ``tag``, free coordinates in ``support``."""

    __slots__ = _key = ("tag", "support")

    def __init__(self, tag: int, support: int):
        _check_subdomain(tag | support, MAX_WIDTH)
        if tag & support:
            raise DomainError("cube tag must be zero on support coordinates")
        _setfield(self, "tag", tag)
        _setfield(self, "support", support)

    @property
    def dim(self) -> int:
        return popcount(self.support)

    def vertices(self) -> Iterator[int]:
        sub = 0
        while True:
            yield self.tag | sub
            if sub == self.support:
                return
            sub = (sub - self.support) & self.support

    def contains_cube(self, other: "Cube") -> bool:
        return (other.support & ~self.support) == 0 and other.tag & ~self.support == self.tag


def interval(c: int, d: int) -> Cube:
    """The smallest cube containing both concepts."""
    return Cube(tag=c & d, support=c ^ d)


def cube_in_class(cube: Cube, concept_set) -> bool:
    """Whether every vertex of the cube lies in the set of concepts."""
    return all(v in concept_set for v in cube.vertices())


def _project(c: int, ys: list[int]) -> int:
    out = 0
    for i, y in enumerate(ys):
        if c >> (y - 1) & 1:
            out |= 1 << i
    return out


def _reindexed(concepts: Iterable[int], kept: int) -> ConceptClass:
    """The class of the concepts projected onto the coordinates of kept,
    re-indexed to 1..|kept|: local coordinate i is the i-th coordinate of
    ``coords(kept)``."""
    ys = coords(kept)
    return ConceptClass(len(ys), tuple(_project(c, ys) for c in concepts))


def restrict(C: ConceptClass, Y: int) -> ConceptClass:
    """C|Y, re-indexed to coordinates 1..|Y|: local coordinate i is the
    i-th coordinate of coords(Y)."""
    _check_subdomain(Y, C.n)
    return _reindexed(C.concepts, Y)


def drop(C: ConceptClass, Y: int) -> ConceptClass:
    """C_Y = C restricted to the complement of Y."""
    _check_subdomain(Y, C.n)
    return _reindexed(C.concepts, C.domain_mask & ~Y)


def reduction_tags(concepts: Iterable[int], Y: int) -> set:
    """Tags (over the original domain) of all Y-cubes fully contained in the class."""
    want = 1 << popcount(Y)
    groups: dict = {}
    for c in concepts:
        t = c & ~Y
        groups[t] = groups.get(t, 0) + 1
    return {t for t, k in groups.items() if k == want}


def reduce(C: ConceptClass, Y: int) -> Optional[ConceptClass]:
    """C^Y over the re-indexed domain X\\Y; None when no Y-cube exists."""
    _check_subdomain(Y, C.n)
    tags = reduction_tags(C.concepts, Y)
    if not tags:
        return None
    return _reindexed(tags, C.domain_mask & ~Y)


def complement(C: ConceptClass) -> ConceptClass:
    """2^X minus C; raises EmptyClassError when C is the full cube."""
    rest = set(range(1 << C.n)) - C.concept_set
    if not rest:
        raise EmptyClassError("complement of the full cube is empty")
    return ConceptClass(C.n, tuple(rest))


def twist(C: ConceptClass, Y: int) -> ConceptClass:
    _check_subdomain(Y, C.n)
    return ConceptClass(C.n, tuple(c ^ Y for c in C))


def product(C: ConceptClass, D: ConceptClass) -> ConceptClass:
    """Cartesian product; D's coordinates are relabelled to C.n+1 .. C.n+D.n."""
    n = C.n + D.n
    _check_domain_width(n)
    cs = tuple(c | (d << C.n) for c in C for d in D)
    return ConceptClass(n, cs)


def intersect_cube(C: ConceptClass, B: Cube) -> Optional[ConceptClass]:
    """C ∩ B over the same domain; None when the intersection is empty."""
    _check_subdomain(B.tag | B.support, C.n)
    cs = tuple(c for c in C if c & ~B.support == B.tag)
    if not cs:
        return None
    return ConceptClass(C.n, cs)


def tail(C: ConceptClass, x: int) -> Optional[ConceptClass]:
    """tail_x(C) as concepts of C_x \\ C^x, over the re-indexed domain X\\{x}."""
    b = bit(_check_coordinate(x, C.n, DomainError))
    s = C.concept_set
    t = [c for c in C if c ^ b not in s]
    if not t:
        return None
    # no two tail concepts differ only in x, so dropping x keeps them apart
    return _reindexed(t, C.domain_mask & ~b)


# -- class file format -------------------------------------------------------
#
# header line          n=<int>
# one concept per line as an n-character 0/1 string, leftmost = coordinate 1
# lines starting with '#' are comments

def _check_width(n: int, line: Optional[int] = None) -> None:
    """The width rule of class and map files, for their readers and writers."""
    if not 1 <= n <= MAX_WIDTH:
        raise ParseError(f"width {n} outside 1..{MAX_WIDTH}", line=line)


def _content_lines(text: str) -> list:
    """(line number from 1, stripped line) for each line of a class or map
    file that is neither blank nor a comment, in file order."""
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and line[0] != "#"]


def parse_class_text(text: str) -> ConceptClass:
    return ConceptClass(*_parse_class(text))


def _parse_class(text: str) -> tuple[int, tuple]:
    """(width, concepts in file order) of a class file's text."""
    n = None
    seen: dict = {}     # concept -> line, in file order
    for lineno, line in _content_lines(text):
        if n is None:
            if not line.startswith("n="):
                raise ParseError("expected header 'n=<int>'", line=lineno)
            try:
                n = parse_decimal(line[2:])
            except ValueError:
                raise ParseError(f"bad width {line[2:]!r}", line=lineno) from None
            _check_width(n, lineno)
            continue
        first = seen.setdefault(_concept_of_width(line, n, lineno), lineno)
        if first != lineno:
            raise ParseError(f"duplicate concept {line!r} (first at line {first})", line=lineno)
    if n is None:
        raise ParseError("empty file: missing 'n=' header")
    if not seen:
        raise ParseError("class file contains no concepts")
    return n, tuple(seen)


def read_class_file(path) -> ConceptClass:
    with open(path, "r", encoding="utf-8") as f:
        return parse_class_text(f.read())


def format_class(C: ConceptClass) -> str:
    """The class file text of C; ParseError, as its reader would raise,
    when C.n lies outside 1..MAX_WIDTH."""
    _check_width(C.n)
    lines = [f"n={C.n}"]
    lines.extend(C.strings())
    return "\n".join(lines) + "\n"


def write_class_file(path, C: ConceptClass) -> None:
    # formatted first, so that a class the format refuses leaves no file
    text = format_class(C)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# -- representation map file format -----------------------------------------
#
# one line '<concept> -> <coordset>' per concept, both n-character 0/1 strings
# lines starting with '#' are comments

def _check_total(C: ConceptClass, r: dict) -> None:
    if set(r) != set(C.concepts):
        raise ContractError("map is not total on the class")
    for v in r.values():
        _check_subdomain(v, C.n, ContractError)


def _inverse(r: dict) -> dict:
    """image -> concept, for a map that is injective."""
    inv = {v: c for c, v in r.items()}
    if len(inv) != len(r):
        raise ContractError("map is not injective")
    return inv


def _decodings(concepts, r: dict, Y: int) -> dict:
    """pattern -> the concepts c with c & Y = pattern and r(c) ⊆ Y, for
    every pattern the concepts take on Y, in the order each first occurs.

    This is the decoder γ on the samples with domain Y: r decodes a
    sample uniquely iff the list at its pattern has one entry."""
    hits: dict = {}
    outside = ~Y
    for c in concepts:
        p = c & Y
        if p not in hits:
            hits[p] = []
        if not r[c] & outside:
            hits[p].append(c)
    return hits


def parse_repmap_text(text: str, n: Optional[int] = None) -> dict:
    """Parse '<concept-bitstring> -> <coordset-bitstring>' lines; the width is
    taken from the first line when not given.  A given width, like a taken
    one, must lie in 1..MAX_WIDTH."""
    return _parse_repmap(text, n)[0]


def _parse_repmap(text: str, n: Optional[int] = None) -> tuple[dict, int]:
    """parse_repmap_text, also returning the width."""
    if n is not None:
        _check_width(n)
    r: dict = {}
    for lineno, line in _content_lines(text):
        parts = line.split("->")
        if len(parts) != 2:
            raise ParseError("expected '<concept> -> <coordset>'", line=lineno)
        left, right = parts[0].strip(), parts[1].strip()
        if n is None:
            n = len(left)
            _check_width(n, lineno)
        if len(left) != n or len(right) != n:
            raise ParseError(f"expected two bitstrings of width {n}", line=lineno)
        c = concept_from_string(left, lineno)
        if c in r:
            raise ParseError("duplicate concept", line=lineno)
        r[c] = concept_from_string(right, lineno)
    if not r:
        raise ParseError("empty representation map file")
    return r, n


def format_repmap(r: dict, n: int) -> str:
    """The map file text of r over width n; ParseError for a map that its
    reader would refuse or read back as another map: a width outside
    1..MAX_WIDTH, no entry, or a concept or image outside the domain."""
    _check_width(n)
    keys = sorted(r)
    images = r.values()
    if not keys or keys[0] < 0 or min(images) < 0 or (keys[-1] | max(images)) >> n:
        raise ParseError(f"map is empty or has a concept or image outside width {n}")
    lines = [f"{concept_to_string(c, n)} -> {concept_to_string(r[c], n)}" for c in keys]
    return "\n".join(lines) + "\n"
