"""amplekit: ample/maximum concept classes over Boolean domains — recognition,
corner peeling, representation maps, and unlabeled sample compression.

The public names below are loaded on first access (PEP 562), so that
`import amplekit` imports no submodule and a command-line run loads only
the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "ConceptClass",
        "Cube",
        "MAX_WIDTH",
        "bit",
        "complement",
        "concept_from_string",
        "concept_to_string",
        "coords",
        "cube_in_class",
        "drop",
        "format_class",
        "interval",
        "mask_of",
        "parse_class_text",
        "popcount",
        "product",
        "read_class_file",
        "reduce",
        "restrict",
        "tail",
        "twist",
        "write_class_file",
    ),
    "errors": (
        "AmplekitError",
        "ContractError",
        "DecodeError",
        "DomainError",
        "EmptyClassError",
        "IntegrityError",
        "NotConnectedError",
        "OrderingValidationError",
        "ParseError",
    ),
    "shatter": (
        "AmpleReport",
        "ample_characterization_report",
        "forbidden_labels",
        "is_ample",
        "is_maximum",
        "phi",
        "shattered_complex",
        "strongly_shattered_complex",
        "vc_dim",
    ),
    "graph": (
        "corners",
        "cube_tags",
        "cubes_through",
        "gallery",
        "is_connected",
        "is_corner",
        "is_isometric",
        "maximal_cubes",
    ),
    "peeling": (
        "CollapseSequence",
        "PeelingResult",
        "ShellingOrder",
        "antimatroid_peeling",
        "classify_ordering",
        "collapse_sequence",
        "corner_peeling_search",
        "ordering_to_shelling",
        "replay_collapse",
        "shelling_to_ordering",
        "two_dim_peeling",
        "validate_shelling",
    ),
    "repmap": (
        "RepMapReport",
        "build_maximum_repmap",
        "certify_repmap",
        "check_uso",
        "incomplete_cube_sources",
        "isr_instance",
        "isr_solve",
        "peeling_to_uso",
        "pre_rep_c1",
        "pre_rep_c2",
        "sub_repmap_cube",
        "sub_repmap_reduction",
        "sub_repmap_restriction",
        "tail_matching_analysis",
        "uso_to_peeling",
        "verify_repmap",
    ),
    "compress": (
        "CompressionScheme",
        "Sample",
        "format_sample",
        "parse_sample",
        "verify_scheme",
    ),
    "matching": (),
    "generate": (),
}

# public name -> the submodule that defines it; a submodule maps to itself
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in (mod, *names)}

__all__ = list(_SOURCE)


def __getattr__(name):
    try:
        mod = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module("." + mod, __name__)
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
