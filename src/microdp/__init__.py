"""Differentially private tabular releases via individual-ranking
microaggregation, with calibrated-noise baselines and utility metrics."""

from .data import (
    AttributeSchema,
    DataError,
    Dataset,
    NeighborPair,
    Schema,
    SchemaError,
    load_dataset,
    load_schema,
    neighbor_pair,
    write_dataset,
)
from .harness import MechanismConfig, SweepSpec, measure, run_release, run_sweep
from .mechanisms import (
    METHODS,
    PrivacyBudget,
    attribute_substream,
    execute_release,
    exponential_mechanism_centroid,
    ir_dp_release,
    laplace_from_uniform,
    mv_dp_release,
    noise_scale,
    plain_laplace_release,
)
from .metrics import UtilityReport, jsd, relative_error, variance_delta
from .microagg import (
    ClusterPlan,
    categorical_order_key,
    individual_ranking,
    multivariate_baseline,
)
from .oracle import (
    BucketStat,
    DpCheckReport,
    Lemma1Report,
    SensitivityProbe,
    dp_property_check,
    exact_dp_ratio,
    exact_expmech_distribution,
    lemma1_check,
)
from .taxonomy import (
    Taxonomy,
    TaxonomyError,
    load_taxonomy,
    marginality,
    marginality_centroid,
    marginality_table,
    spanned_subtree,
)

__version__ = "0.1.0"
