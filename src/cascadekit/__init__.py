"""Desk-scale machinery for cascade-window combinatorics.

Predecessor forests and their closed windows, star-span linear algebra
over F2, cascade automorphisms acting on finite conditions, packet-scheme
normalization of names under finite semantics, 2-group orbit analysis, and
the even/odd selector mechanics, all behind a verification CLI.
"""

from types import ModuleType as _Module

from .errors import (
    CapacityError,
    CascadekitError,
    CertificateError,
    DomainError,
    ParseError,
    PreconditionError,
)
from .forest import (
    PredecessorForest,
    Window,
    fresh_separation,
    is_rho_closed,
    random_forest,
    rho_closure,
    successors,
)
from .f2linalg import (
    F2Matrix,
    F2Vector,
    combine_stars,
    matrix_order,
    solve_all_targets,
    solve_star_span,
    star_matrix,
)
from .cascade import (
    CascadeAutomorphism,
    Condition,
    Coordinate,
    Packet,
    ToggleSet,
    apply,
    compose,
    compose_all,
    fixes_rows_over,
    generator,
    identity,
    pad_common_domain,
    shield_set,
    transport,
)
from .names import (
    Assignment,
    CoordinateBox,
    PacketScheme,
    RawName,
    TwoLayerCode,
    decision_invariant,
    decode_two_layer,
    evaluate,
    normalize,
    two_layer_code,
)
from .orbits import (
    FiniteAction,
    QuotientAnalysis,
    TranslationPartition,
    close_group,
    odd_fixed_point,
    orbit_partition,
    quotient_analysis,
)
from .selectors import (
    IndexedFamily,
    SwapWitness,
    TraceProfile,
    canonical_selector,
    equality_pattern,
    lift_choice,
    swap_witness,
)

__version__ = "0.1.0"

# the re-exported classes and functions; the imports above also bind their submodules
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _Module))
