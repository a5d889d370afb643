import hashlib

import numpy as np
import pytest

from citeconc.corpus import load_corpus

ARTICLES_TSV = """id\tpub_year\tfield\tregion\tjournal_id\tauthor_ids
A\t2000\tPhys\tNorthAmerica\tJ1\ta1
B\t2000\tBio\tEurope\tJ2\ta2;a3
C\t2001\tPhys\tNorthAmerica\tJ1\ta1;a4
D\t2002\tBio\tAsia\tJ2\ta5
E\t2003\tPhys\tEurope\tJ1\ta6
"""

# C->A is a self-citation (shared a1). Last three rows are dirty on purpose:
# duplicate edge, dangling endpoint, citation to the future.
EDGES_TSV = """citing_id\tcited_id
C\tA
D\tA
D\tB
E\tB
E\tC
D\tA
A\tX
A\tC
"""


def id_index(corpus) -> dict[str, int]:
    """Article id -> row of a corpus, built from its ``ids`` column."""
    return {a: i for i, a in enumerate(corpus.ids)}


def corpus_digest(corpus) -> str:
    """sha256 over every array of a corpus (dtype, shape and bytes), its ids, label lists, span and drops."""
    h = hashlib.sha256()
    for name in ("pub_year", "field_code", "region_code", "journal_code", "author_ptr", "author_code",
                 "citing", "cited", "self_edge"):
        a = np.ascontiguousarray(getattr(corpus, name))
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    for labels in (corpus.ids.tolist(), corpus.authors, corpus.fields, corpus.regions, corpus.journals):
        h.update("\n".join(labels).encode() + b"\0")
    h.update(repr((corpus.span, sorted(corpus.drops.items()))).encode())
    return h.hexdigest()


def make_corpus(articles: str = ARTICLES_TSV, edges: str = EDGES_TSV, span=(2000, 2004)):
    return load_corpus(articles.encode(), edges.encode(), span)


@pytest.fixture
def fixture_corpus():
    return make_corpus()
