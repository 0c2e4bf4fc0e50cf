"""cumuldyn: measure and model the cumulativeness of technologies.

A technology's knowledge base is treated as a growing citation graph.  Two
indicators characterize how strongly it builds on itself: the internal
dependence (average backward links per invention) and the internal path
length (average length of the dependency chains).  The package measures
both on real corpora, simulates a search-process growth model that predicts
them, evaluates the model's closed forms, and fits/validates model against
data.
"""

from .core import (
    BacklinkDistribution,
    BacklinkTable,
    DistributionFits,
    InventionNode,
    KnowledgeGraph,
    LinearFit,
    ModelParams,
    PathLengthDistribution,
    PathLengthTable,
    RatePredictions,
    SeriesPoint,
    validate_graph,
)
from .fitting import (
    classify_relative_cumulativeness,
    fit_series,
    geometric_gof,
    invention_rate,
    ols_fit,
    pathlength_gof,
    power_law_fit,
)
from .growth import rho, simulate
from .ingest import (
    CitationRecord,
    Corpus,
    CorpusError,
    CorpusNode,
    IngestDiagnostics,
    TechnologyQuery,
    build_graph,
    load_corpus,
)
from .measures import Checkpoint, measure_checkpoints, measure_series
from .predictions import (
    analytic_ipl,
    analytic_path_counts,
    binomial_path_pmf,
    corrected_rate_a,
    corrected_rate_b,
    expected_id,
    expected_initial_count,
    harmonic_number,
    harmonic_real,
    ipl_slope,
    log_factorials,
    max_speed,
    normalized_path_dist,
    rate_predictions,
    total_paths_closed,
)

__version__ = "0.1.0"
