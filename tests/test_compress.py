import itertools

import pytest

from amplekit import compress, core, generate, repmap, shatter
from amplekit.core import ConceptClass, bit, mask_of
from amplekit.errors import ContractError, DecodeError, IntegrityError, ParseError


def cc(*strings):
    return ConceptClass.from_strings(list(strings))


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


def test_realizable_samples():
    samples = compress.realizable_samples(PATH3, mask_of([1, 2]))
    assert len(samples) == 3
    assert all(s.bits != mask_of([1, 2]) for s in samples)
    assert compress.realizable_samples(PATH3, 0) == [compress.Sample(0, 0)]
    Q2 = ConceptClass.of(2, range(4))
    assert len(compress.realizable_samples(Q2, bit(1))) == 2


def test_realizable_samples_count_matches_restriction():
    for n in (2, 3):
        for mask in range(1, 1 << (1 << n)):
            C = ConceptClass(n, tuple(c for c in range(1 << n) if mask >> c & 1))
            for dom in range(1 << n):
                got = compress.realizable_samples(C, dom)
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
    report = compress.verify_scheme(PATH3, scheme)
    assert report.ok
    assert report.max_size == 1 == shatter.vc_dim(PATH3)


def test_verify_scheme_corrupted_map():
    bad = dict(GOOD_R)
    bad[bit(1)], bad[bit(2)] = bad[bit(2)], bad[bit(1)]   # swap two images
    scheme = compress.CompressionScheme(PATH3, bad)
    report = compress.verify_scheme(PATH3, scheme)
    assert not report.ok
    assert report.witness is not None and report.reason


def test_verify_scheme_maximum_classes():
    for n, d in ((3, 1), (4, 2), (5, 1)):
        C = generate.hamming_ball(n, d)
        r = repmap.build_maximum_repmap(C)
        report = compress.verify_scheme(C, compress.CompressionScheme(C, r))
        assert report.ok and report.max_size == d


@pytest.mark.parametrize("n, sampled", [(3, False), (12, False), (13, True)])
def test_verify_scheme_says_when_domains_were_sampled(n, sampled):
    C = generate.hamming_ball(n, 1)
    r = repmap.build_maximum_repmap(C)
    report = compress.verify_scheme(C, compress.CompressionScheme(C, r))
    assert report.ok and report.sampled is sampled
    bad = dict(r)
    bad[bit(1)], bad[bit(2)] = r[bit(2)], r[bit(1)]
    report = compress.verify_scheme(C, compress.CompressionScheme(C, bad))
    assert not report.ok and report.sampled is sampled


def test_scheme_rejects_a_map_that_is_not_total():
    with pytest.raises(ContractError):
        compress.CompressionScheme(PATH3, {0: 0, bit(1): bit(1)})


def test_scheme_rejects_a_map_that_is_not_injective():
    C = ConceptClass.of(3, [0, bit(1)])
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
