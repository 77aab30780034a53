"""Class builders shared by the tests: classes from bitstrings, and every
class (or every ample class) on a small domain."""
from amplekit import shatter
from amplekit.core import ConceptClass


def cc(*strings):
    return ConceptClass.from_strings(list(strings))


def all_classes(n, max_size=None):
    """Every nonempty class on n coordinates, in the order of the bitset of
    its concepts, those of more than max_size concepts left out."""
    for mask in range(1, 1 << (1 << n)):
        concepts = tuple(c for c in range(1 << n) if mask >> c & 1)
        if max_size is None or len(concepts) <= max_size:
            yield ConceptClass(n, concepts)


def ample_classes(n, max_size=None):
    for C in all_classes(n, max_size):
        if shatter.is_ample(C)[0]:
            yield C
