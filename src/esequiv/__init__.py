"""Finite labelled prime event structures and their behavioural relations.

Build structures from a small process-algebra notation or explicit ``.es``
files, enumerate their configuration semantics under interleaving, step,
and pomset transitions, and decide ten behavioural relations from
interleaving trace equivalence down to isomorphism.  Includes curated
separating pairs, random-corpus verification of the relation lattice for
the general, conflict-only, and causality-only classes, and a bounded
exhaustive search for minimal separating pairs.
"""

__version__ = "0.1.0"

from .algebra import Atom, Par, Seq, Sum, compile_term, from_expr, parse, render
from .canon import KERNEL
from .equivalences import (
    INCLUSION_ARROWS,
    MATRIX_ORDER,
    Relation,
    VerdictMatrix,
    bisim,
    check,
    full_matrix,
    hb_equiv,
    hhb_equiv,
    pomset_trace_equiv,
    trace_equiv,
    whb_equiv,
)
from .formats import dumps_es, export_dot, loads_es, read_es, write_es
from .search import (
    SearchResult,
    SearchSpec,
    enumerate_posets,
    find_minimal_pairs,
    source_deleted_multiset,
)
from .semantics import (
    MODE_INTERLEAVING,
    MODE_POMSET,
    MODE_STEP,
    Lts,
    Semantics,
    build_lts,
    configurations,
    has_autoconcurrency,
    poset_of,
    trace_language,
)
from .spectrum import (
    DIAGRAMS,
    CorpusSpec,
    Fixture,
    builtin_fixtures,
    corpus_pairs,
    generate_corpus,
    verify_spectrum,
)
from .structure import (
    EventStructure,
    StructureClass,
    build,
    canonical_form,
    classify,
    concurrency,
    isomorphic,
    minimal_conflict_pairs,
    relabel,
    restrict,
    transitive_reduction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
