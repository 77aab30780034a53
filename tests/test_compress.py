import itertools
import random

import pytest

from amplekit import compress, core, generate, graph, peeling, repmap, shatter
from amplekit.core import ConceptClass, bit, mask_of
from amplekit.errors import ContractError, DecodeError, IntegrityError, ParseError

from classes import ample_classes, cc


PATH3 = cc("00", "01", "10")
GOOD_R = {0: 0, bit(2): bit(2), bit(1): bit(1)}


# ---------------------------------------------------------------- samples

def test_sample_wire_format():
    s = compress.parse_sample("x1=0,x3=1")
    assert s.dom == mask_of([1, 3]) and s.bits == bit(3)
    assert compress.format_sample(s) == "x1=0,x3=1"
    assert compress.parse_sample("") == compress.Sample(0, 0)


def test_sample_rejects_unsorted_or_malformed():
    with pytest.raises(ParseError):
        compress.parse_sample("x3=1,x1=0")
    with pytest.raises(ParseError):
        compress.parse_sample("x1=2")
    with pytest.raises(ParseError):
        compress.parse_sample("x1=0,x1=1")


@pytest.mark.parametrize("text", ["x١٢=1", "x1=+1", "x+1=0", "x1_0=1", "x1=٠", "x=1", "x1="])
def test_sample_fields_take_only_ascii_digits(text):
    with pytest.raises(ParseError, match="bad sample entry"):
        compress.parse_sample(text)


def realizable_samples(C: ConceptClass, dom: int) -> list[compress.Sample]:
    """All samples with the given domain realized by the class, in ascending
    pattern order."""
    if dom & ~C.domain_mask:
        raise ContractError("sample domain outside the class domain")
    return [compress.Sample(dom, p) for p in sorted({c & dom for c in C})]


def test_realizable_samples():
    samples = realizable_samples(PATH3, mask_of([1, 2]))
    assert len(samples) == 3
    assert all(s.bits != mask_of([1, 2]) for s in samples)
    assert realizable_samples(PATH3, 0) == [compress.Sample(0, 0)]
    Q2 = ConceptClass(2, range(4))
    assert len(realizable_samples(Q2, bit(1))) == 2


def test_realizable_samples_count_matches_restriction():
    for n in (2, 3):
        for mask in range(1, 1 << (1 << n)):
            C = ConceptClass(n, tuple(c for c in range(1 << n) if mask >> c & 1))
            for dom in range(1 << n):
                got = realizable_samples(C, dom)
                assert len(got) == len({c & dom for c in C})
            if n == 3 and mask > 300:
                break


# ---------------------------------------------------------------- gamma

def test_reconstruct_unique():
    s = compress.parse_sample("x1=0")
    assert compress.reconstruct_unique(PATH3, GOOD_R, s) == 0
    s = compress.parse_sample("x2=1")
    assert compress.reconstruct_unique(PATH3, GOOD_R, s) == bit(2)
    full = compress.Sample(mask_of([1, 2]), bit(1))
    assert compress.reconstruct_unique(PATH3, GOOD_R, full) == bit(1)


def test_reconstruct_rejects_unrealizable():
    s = compress.Sample(mask_of([1, 2]), mask_of([1, 2]))
    with pytest.raises(ContractError):
        compress.reconstruct_unique(PATH3, GOOD_R, s)


def test_reconstruct_flags_broken_map():
    # a constant map breaks uniqueness
    broken = {c: 0 for c in PATH3}
    with pytest.raises(IntegrityError):
        compress.reconstruct_unique(PATH3, broken, compress.parse_sample("x1=0"))


# ------------------------------------------------------------- round trip

def test_compress_decompress_examples():
    scheme = compress.CompressionScheme(PATH3, GOOD_R)
    assert scheme.compress(compress.parse_sample("x1=0")) == 0
    assert scheme.decompress(0) == 0
    assert scheme.compress(compress.parse_sample("x2=1")) == bit(2)
    assert scheme.decompress(bit(2)) == bit(2)
    # full description of a concept compresses to r(c) and back to c
    for c in PATH3:
        s = compress.Sample(mask_of([1, 2]), c)
        assert scheme.compress(s) == GOOD_R[c]
        assert scheme.decompress(GOOD_R[c]) == c


def test_decompress_rejects_unknown_set():
    scheme = compress.CompressionScheme(PATH3, GOOD_R)
    with pytest.raises(DecodeError):
        scheme.decompress(mask_of([1, 2]))


# ---------------------------------------------------------------- verify

def test_verify_scheme_path():
    scheme = compress.CompressionScheme(PATH3, GOOD_R)
    report = compress.verify_scheme(scheme)
    assert report.ok
    assert report.max_size == 1 == shatter.vc_dim(PATH3)


def test_verify_scheme_corrupted_map():
    bad = dict(GOOD_R)
    bad[bit(1)], bad[bit(2)] = bad[bit(2)], bad[bit(1)]   # swap two images
    scheme = compress.CompressionScheme(PATH3, bad)
    report = compress.verify_scheme(scheme)
    assert not report.ok
    assert report.witness is not None and report.reason


def test_scheme_keeps_its_own_copy_of_the_map():
    # the scheme once stored the caller's dict: swapping two of its images
    # afterwards changed scheme.r and left scheme.inv stale
    C = generate.hamming_ball(3, 1)
    r = repmap.build_maximum_repmap(C)
    want = dict(r)
    scheme = compress.CompressionScheme(C, r)
    a, b = C.concepts[:2]
    r[a], r[b] = r[b], r[a]
    assert scheme.r == want
    for c in C:
        s = compress.Sample(C.domain_mask, c)
        assert scheme.decompress(scheme.compress(s)) == c


def test_verify_scheme_judges_only_the_class_of_the_scheme():
    small, big = generate.hamming_ball(3, 1), generate.hamming_ball(3, 2)
    # two images swapped outside small: the scheme fails on its own class
    r = repmap.build_maximum_repmap(big)
    a, b = sorted(big.concept_set - small.concept_set)[:2]
    bad = compress.CompressionScheme(big, {**r, a: r[b], b: r[a]})
    assert not compress.verify_scheme(bad).ok


def test_verify_scheme_maximum_classes():
    for n, d in ((3, 1), (4, 2), (5, 1)):
        C = generate.hamming_ball(n, d)
        r = repmap.build_maximum_repmap(C)
        report = compress.verify_scheme(compress.CompressionScheme(C, r))
        assert report.ok and report.max_size == d


@pytest.mark.parametrize("n", [13, 16])
def test_verify_scheme_is_exact_above_width_12(n):
    # the 2^n domains were once enumerated up to n = 12 and sampled above:
    # at n = 16 the sampling reported the domain {2,3,15,16}, not {1}
    C = generate.hamming_ball(n, 3)
    r = repmap.build_maximum_repmap(C)
    report = compress.verify_scheme(compress.CompressionScheme(C, r))
    assert report == (True, 3, sum(1 << (n - core.popcount(v)) for v in r.values()), None, "")
    bad = dict(r)
    bad[bit(1)], bad[bit(2)] = r[bit(2)], r[bit(1)]
    report = compress.verify_scheme(compress.CompressionScheme(C, bad))
    assert not report.ok
    assert report.witness.dom == repmap.verify_repmap(C, bad).r2.witness[0]


def verify_scheme_oracle(C, scheme):
    """verify_scheme as first written, for n ≤ 12: bucket the concepts with
    r(c) ⊆ dom by pattern, then round-trip each realized pattern."""
    d = shatter.vc_dim(C)
    r, inv = scheme.r, scheme.inv
    max_size = checked = 0

    def fail(dom, pat, reason):
        return compress.SchemeReport(False, max_size, checked,
                                     compress.Sample(dom, pat), reason)

    for dom in range(1 << C.n):
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
            if core.popcount(a) > d:
                return fail(dom, pat, "compressed set too large")
            if inv[a] & dom != pat:
                return fail(dom, pat, "round trip mismatch")
            max_size = max(max_size, core.popcount(a))
    return compress.SchemeReport(True, max_size, checked)


def verify_scheme_enumeration_oracle(C, scheme):
    """verify_scheme as it read every domain, for n ≤ 12: each domain in
    numeric order, each pattern in `core._decodings` order, up to the first
    failing sample."""
    r = scheme.r
    d = shatter.vc_dim(C)
    max_size = 0
    checked = 0

    def fail(dom: int, pat: int, reason: str) -> compress.SchemeReport:
        return compress.SchemeReport(False, max_size, checked, compress.Sample(dom, pat), reason)

    for dom in range(1 << C.n):
        for pat, hits in core._decodings(C.concepts, r, dom).items():
            checked += 1
            if len(hits) != 1:
                return fail(dom, pat, "ambiguous reconstruction" if hits
                            else "no reconstruction")
            size = core.popcount(r[hits[0]])
            if size > d:
                return fail(dom, pat, "compressed set too large")
            max_size = max(max_size, size)
    return compress.SchemeReport(True, max_size, checked)


def reconstruct_unique_oracle(C, r, s):
    """γ(s) as first written: a realizability scan, then a candidate scan."""
    if not any(s.consistent(c) for c in C):
        raise ContractError("sample is not realizable by the class")
    hits = [c for c in C if s.consistent(c) and r[c] & ~s.dom == 0]
    if len(hits) != 1:
        raise IntegrityError(
            f"{len(hits)} reconstruction candidates, expected 1 "
            "(not a valid representation map)")
    return hits[0]


def injective_map_cases(seed):
    """(class, injective map) pairs with n ≤ 7: representation maps of
    random ample classes and of balls, random bijections onto X(C), maps
    with two images swapped, and random injective maps, on ample classes
    and on classes that are not ample."""
    rng = random.Random(seed)
    for n in range(2, 8):
        classes = [generate.random_ample(n, rng.randrange(2, min(1 << n, 50)), s)
                   for s in range(3)]
        classes.append(generate.hamming_ball(n, rng.randrange(1, n)))
        while True:
            D = ConceptClass(n, tuple(rng.sample(range(1 << n), rng.randrange(2, 1 << n))))
            if not shatter.is_ample(D)[0]:
                break
        for C in classes:
            o = repmap.peeling_to_uso(C, peeling.corner_peeling_search(C).ordering)
            yield C, o
            for _ in range(2):
                t = dict(o)
                a, b = rng.sample(C.concepts, 2)
                t[a], t[b] = o[b], o[a]
                yield C, t
            images = sorted(graph.cube_tags(C))
            rng.shuffle(images)
            yield C, dict(zip(C.concepts, images))
        for A in (classes[0], D, D):
            yield A, dict(zip(A.concepts, rng.sample(range(1 << n), A.size)))


def test_verify_scheme_matches_the_round_trip_loop():
    """The same verdict as the loop it replaces on every map, and the same
    report whenever the scheme is sound."""
    verdicts = {True: 0, False: 0}
    for C, r in injective_map_cases(37):
        scheme = compress.CompressionScheme(C, r)
        got, want = compress.verify_scheme(scheme), verify_scheme_oracle(C, scheme)
        assert got.ok == want.ok
        if want.ok:
            assert got == want
        else:
            assert got.reason in ("ambiguous reconstruction", "no reconstruction",
                                  "compressed set too large")
        verdicts[got.ok] += 1
    assert verdicts[True] > 10 and verdicts[False] > 10


def oversize_image_cases(seed):
    """(class, injective map) pairs with n ≤ 7 whose first failing sample is
    too large.  The least concept c takes an oversize image W, one of the
    three least sets above vc_dim in size.  The shattered sets below W go,
    in ascending order, to concepts off c's pattern on W, each drawn among
    those that clash with no earlier pick at a union below W (a few tries);
    the other concepts take sets above W.  So every domain below W
    decodes uniquely (`repmap._r2_domain`), and at W c's pattern comes
    first, decoded by c alone."""
    rng = random.Random(seed)
    for n in range(3, 8):
        for k in range(80):
            if k % 2:
                C = generate.random_ample(n, rng.randrange(3, min(1 << n, 16)), k)
            else:
                C = ConceptClass(n, rng.sample(range(1 << n), rng.randrange(3, min(1 << n, 12))))
            sh = shatter._shattered_sets(C)
            d = max(map(core.popcount, sh))
            if d == n:
                continue
            W = rng.choice([W for W in range(1 << n) if core.popcount(W) > d][:3])
            c, *rest = C.concepts
            low = sorted(Z for Z in sh if Z < W)
            for _ in range(30):
                r = {}
                for Z in low:
                    fits = [e for e in rest if e & W != c & W and e not in r and all(
                        (e ^ a) & (Z | r[a]) or Z | r[a] >= W for a in r)]
                    if not fits:
                        break
                    r[rng.choice(fits)] = Z
                else:
                    others = [e for e in rest if e not in r]
                    above = rng.sample(range(W + 1, 1 << n), len(others))
                    yield C, {c: W, **r, **dict(zip(others, above))}
                    break


def test_verify_scheme_equals_the_enumeration_oracle(monkeypatch):
    """The whole report, failures included, on every map, with the verdict
    of the certificate and the decoder read once, at the witness's domain
    alone."""
    decodings = core._decodings
    domains = []
    monkeypatch.setattr(core, "_decodings",
                        lambda cs, r, Y: domains.append(Y) or decodings(cs, r, Y))
    verdicts = {True: 0, False: 0}
    for seed in range(6):
        for C, r in injective_map_cases(seed):
            scheme = compress.CompressionScheme(C, r)
            domains.clear()
            report = compress.verify_scheme(scheme)
            assert domains == ([] if report.ok else [report.witness.dom])
            assert report == verify_scheme_enumeration_oracle(C, scheme)
            assert report.ok == repmap.certify_repmap(C, r).valid
            verdicts[report.ok] += 1
    assert verdicts[True] > 200 and verdicts[False] > 300


def test_verify_scheme_equals_the_enumeration_oracle_on_oversize_images():
    cases = 0
    for seed in range(6):
        for C, r in oversize_image_cases(seed):
            scheme = compress.CompressionScheme(C, r)
            report = compress.verify_scheme(scheme)
            assert report == verify_scheme_enumeration_oracle(C, scheme)
            assert report.reason == "compressed set too large"
            assert report.ok == repmap.certify_repmap(C, r).valid
            cases += 1
    assert cases > 40


def test_verify_scheme_is_the_certificate_on_every_bijection_onto_x_of_c():
    """Every bijection onto X(C) of every ample class with n ≤ 3 and
    |C| ≤ 6: the scheme passes exactly when the map certifies."""
    verdicts = {True: 0, False: 0}
    for n in (1, 2, 3):
        for C in ample_classes(n, 6):
            for images in itertools.permutations(graph.cube_tags(C)):
                r = dict(zip(C.concepts, images))
                ok = compress.verify_scheme(compress.CompressionScheme(C, r)).ok
                assert ok == repmap.certify_repmap(C, r).valid
                verdicts[ok] += 1
    assert verdicts == {True: 1232, False: 12672 - 1232}


def test_verify_scheme_never_searches_r2_on_a_certified_map(monkeypatch):
    """On a certified map the pass report comes from the certificate alone:
    R2's domain is searched only to locate a failure."""
    def no_search(*args):
        raise AssertionError("R2's domain searched on a certified map")

    monkeypatch.setattr(repmap, "_r2_domain", no_search)
    B, D = generate.hamming_ball(16, 3), generate.random_ample(11, 400, 0)
    for C, r in ((B, repmap.build_maximum_repmap(B)),
                 (D, repmap.peeling_to_uso(D, peeling.corner_peeling_search(D).ordering))):
        report = compress.verify_scheme(compress.CompressionScheme(C, r))
        assert report == (True, max(map(core.popcount, r.values())),
                          sum(1 << (C.n - core.popcount(v)) for v in r.values()), None, "")


def test_reconstruct_unique_matches_the_two_scans():
    """Results and errors, messages included, on every sample of every
    domain, realizable or not."""
    outcomes = set()
    for C, r in injective_map_cases(41):
        if C.n > 4:
            continue
        for dom in range(1 << C.n):
            for bits in range(1 << C.n):
                if bits & ~dom:
                    continue
                s = compress.Sample(dom, bits)
                try:
                    want = reconstruct_unique_oracle(C, r, s)
                except (ContractError, IntegrityError) as exc:
                    with pytest.raises(type(exc)) as got:
                        compress.reconstruct_unique(C, r, s)
                    assert str(got.value) == str(exc)
                    outcomes.add(str(exc))
                    continue
                assert compress.reconstruct_unique(C, r, s) == want
                outcomes.add("ok")
    assert len(outcomes) >= 4


def test_scheme_rejects_a_map_that_is_not_total():
    with pytest.raises(ContractError):
        compress.CompressionScheme(PATH3, {0: 0, bit(1): bit(1)})


def test_scheme_rejects_a_map_that_is_not_injective():
    C = ConceptClass(3, [0, bit(1)])
    with pytest.raises(ContractError, match="map is not injective"):
        compress.CompressionScheme(C, {0: 0, bit(1): 0})


def test_full_domain_compression_injective():
    C = generate.hamming_ball(4, 2)
    r = repmap.build_maximum_repmap(C)
    scheme = compress.CompressionScheme(C, r)
    dom = C.domain_mask
    images = {scheme.compress(compress.Sample(dom, c)) for c in C}
    assert len(images) == C.size


def test_counting_identity():
    # |{s in RS(C): dom(s) = Y}| == |{c : r(c) ⊆ Y}| for every Y
    C = generate.hamming_ball(4, 1)
    r = repmap.build_maximum_repmap(C)
    for Y in range(1 << 4):
        lhs = len({c & Y for c in C})
        rhs = sum(1 for c in C if r[c] & ~Y == 0)
        assert lhs == rhs
