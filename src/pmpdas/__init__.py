"""Polynomial multiproofs for sampled retrieval of erasure-coded data.

The package layers, bottom up: BLS12-381 arithmetic (`fields`, `curve`),
scalar-field polynomials (`field_poly`), KZG commitments (`kzg`),
shared-point aggregated openings (`multiproof`), the erasure-coded grid
(`grid`), wire formats, the fixture file and storage accounting
(`wire`), the simulated sampling workflow (`dasnet`), and the CLI (`cli`).
"""

from .curve import CurveError, G1Point, G2Point, g1_msm, g2_msm, pairing_check
from .field_poly import (
    SCALAR_MODULUS, EvaluationDomain, FieldPolyError, NonCanonicalScalar,
    Polynomial, div_rem, evaluate_on_domain, interpolate,
    roots_of_unity_domain, scalar_from_bytes, scalar_to_bytes, vanishing_poly,
)
from .kzg import (
    SRS, KzgError, OpCounters, PairingTerms, batch_independent_terms, commit,
    commit_many, gen, open_many, open_single, single_terms,
    verify_batch_independent, verify_single,
)
from .multiproof import (
    MultiproofError, OpenedGroup, Transcript, derive_gamma, open_generic,
    open_groups, open_shared, shared_terms, verify_shared,
)
from .grid import (
    Coordinate, DataGrid, GridDims, GridError, build_grid, build_opened_group,
    coordinate_to_group, default_row_domain, iter_groups,
    partition_micro_domains,
)
from .wire import (
    DECODE_ERRORS, BaselineCell, CountMismatch, Fixture, GCellBlock,
    GroupedCells, MCell, NonCanonicalScalarEncoding, StorageReport,
    TruncatedInput, WireError, storage_report,
)
from .dasnet import (
    BlockContext, ConfigMode, DasNetError, ExperimentConfig,
    ExperimentSession, RetrievalOutcome, SamplingPlan, SimDht, Status,
    build_objects, effective_samples, make_sampling_plan, object_key,
    object_location, object_regions, object_terms, publish, required_samples,
    sample_and_verify, verify_object, verify_round,
)

__version__ = "0.1.0"
