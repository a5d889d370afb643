"""Citation-concentration analytics: corpus ingestion, citation windows,
field/year normalization, inequality measures, and study pipelines."""

from citeconc.concentration import gini, top_share
from citeconc.corpus import Corpus, filter_core_journals, load_corpus, write_tables
from citeconc.windows import WindowSpec, cited_population_backward, eligible_pub_years_forward

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "WindowSpec",
    "cited_population_backward",
    "eligible_pub_years_forward",
    "filter_core_journals",
    "gini",
    "load_corpus",
    "top_share",
    "write_tables",
]
