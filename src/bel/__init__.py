"""Exact toolkit for binomial edge ideals of graphs: Groebner bases,
prime decompositions, symbolic powers, and the combinatorial criteria
that decide when ordinary and symbolic powers agree."""

from .bei import (
    AdmissiblePath,
    admissible_paths,
    binomial_edge_ideal,
    edge_binomial,
    gb_max_degree,
    graph_ring,
    groebner_combinatorial,
    initial_ideal,
)
from .complexes import (
    SimplicialComplex,
    SpecialCycle,
    delta_of,
    equality_criterion_via_cycles,
    find_special_odd_cycle,
)
from .decomp import (
    EqualityVerdict,
    PrimeComponent,
    equality_verdict,
    minimal_primes,
    prime_component,
    symbolic_power,
)
from .errors import SizeLimitError
from .fields import QQ, PrimeField, field_from_spec
from .graphs import Graph, GraphParseError, complement, from_file, from_text, net_graph, to_text
from .ideals import Ideal, intersect_all
from .kernel import KERNEL_NAME
from .recognizers import (
    GenCatWitness,
    Labeling,
    find_closed_labeling,
    find_weakly_closed_labeling,
    gencat_labeling,
    is_caterpillar,
    is_comparability,
    is_generalized_caterpillar,
    is_net_free,
    is_tree,
    is_weakly_closed,
)
from .rings import Polynomial, RingContext
from .suite import run_suite

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePath",
    "EqualityVerdict",
    "GenCatWitness",
    "Graph",
    "GraphParseError",
    "Ideal",
    "KERNEL_NAME",
    "Labeling",
    "Polynomial",
    "PrimeComponent",
    "PrimeField",
    "QQ",
    "RingContext",
    "SimplicialComplex",
    "SizeLimitError",
    "SpecialCycle",
    "admissible_paths",
    "binomial_edge_ideal",
    "complement",
    "delta_of",
    "edge_binomial",
    "equality_criterion_via_cycles",
    "equality_verdict",
    "field_from_spec",
    "find_closed_labeling",
    "find_special_odd_cycle",
    "find_weakly_closed_labeling",
    "from_file",
    "from_text",
    "gb_max_degree",
    "gencat_labeling",
    "graph_ring",
    "groebner_combinatorial",
    "initial_ideal",
    "intersect_all",
    "is_caterpillar",
    "is_comparability",
    "is_generalized_caterpillar",
    "is_net_free",
    "is_tree",
    "is_weakly_closed",
    "minimal_primes",
    "net_graph",
    "prime_component",
    "run_suite",
    "symbolic_power",
    "to_text",
]
