"""repro — a reproduction of "Probabilistic Databases with MarkoViews" (VLDB 2012).

One front door
--------------

The blessed client API lives right here::

    import repro

    mvdb = repro.MVDB()
    mvdb.add_probabilistic_table("R", ["x"], [(("a",), 1.0)])
    mvdb.add_probabilistic_table("S", ["x"], [(("a",), 2.0)])
    mvdb.add_markoview(
        repro.MarkoView("V", repro.parse_query("V(x) :- R(x), S(x)"), weight=0.25)
    )

    db = repro.connect(mvdb)                  # offline pipeline: translate + compile
    result = db.query("Q :- R(x), S(x)")      # typed QueryResult
    db.save("index.json.gz")                  # persist; repro.open() cold-starts it

* :func:`connect` / :func:`open` / :class:`ProbDB` — the client facade
  (:mod:`repro.client`): queries, prepared queries, batches, artifact
  save/load, incremental view extension, statistics;
* :func:`connect_remote` / :class:`RemoteProbDB` — the same query surface
  over HTTP, against a server started with ``python -m repro serve``
  (:mod:`repro.serving.server`);
* :class:`QueryResult` / :class:`Answer` — typed results
  (:mod:`repro.results`) with probabilities, lineage sizes, work counters,
  cache provenance and wall time;
* :mod:`repro.methods` — the pluggable inference-method registry
  (``mvindex``, ``mvindex-mv``, ``obdd``, ``enumeration``, ``sampling``,
  plus anything you :func:`repro.methods.register`).

Building blocks (stable, importable directly)
---------------------------------------------

* :mod:`repro.db` — an in-memory relational engine (the deterministic substrate);
* :mod:`repro.query` — conjunctive queries / UCQs, a datalog-style parser and an
  evaluator that extracts lineage;
* :mod:`repro.lineage` — lineage formulas and exact probability computation;
* :mod:`repro.indb` — tuple-independent probabilistic databases (weights/odds);
* :mod:`repro.obdd` — an OBDD manager and the ConOBDD construction algorithm;
* :mod:`repro.mvindex` — the MV-index and the MVIntersect / CC-MVIntersect
  query-time intersection algorithms;
* :mod:`repro.mln` — a Markov Logic Network substrate with exact and MC-SAT
  inference (the "Alchemy" baseline);
* :mod:`repro.dblp` — a synthetic DBLP-style workload generator reproducing the
  schema, probabilistic tables and MarkoViews of Fig. 1;
* :mod:`repro.experiments` — runners that regenerate every figure of Sect. 5.

One import path
---------------

:mod:`repro.core` and :mod:`repro.serving` re-export nothing but
``repro.core.translate``: import from their submodules (e.g.
``from repro.core.engine import MVQueryEngine``) or use the facade above;
``docs/api.md`` lists where each formerly re-exported name lives.
"""

from repro.client import ProbDB, RemoteProbDB, connect, connect_remote, open_artifact
from repro.core.markoview import MarkoView
from repro.core.mvdb import MVDB
from repro.db.database import Database
from repro.db.table import Table
from repro.errors import (
    ArtifactError,
    ClientError,
    InferenceError,
    QueryError,
    ReproError,
)
from repro.indb.database import TupleIndependentDatabase
from repro.lineage.dnf import DNF
from repro.query.atoms import Atom, Comparison
from repro.query.cq import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.query.terms import Variable
from repro.query.ucq import UCQ
from repro.results import Answer, QueryResult

from repro import methods  # noqa: E402  (registry module, re-exported by name)

#: ``repro.open(path)`` — cold-start a :class:`ProbDB` from a saved artifact.
open = open_artifact

__all__ = [
    # the facade
    "ProbDB",
    "RemoteProbDB",
    "connect",
    "connect_remote",
    "open",
    "open_artifact",
    "Answer",
    "QueryResult",
    "methods",
    # modelling
    "MVDB",
    "MarkoView",
    # query language
    "Atom",
    "Comparison",
    "ConjunctiveQuery",
    "UCQ",
    "Variable",
    "parse_query",
    # substrates
    "DNF",
    "Database",
    "Table",
    "TupleIndependentDatabase",
    # errors
    "ArtifactError",
    "ClientError",
    "InferenceError",
    "QueryError",
    "ReproError",
]

__version__ = "1.1.0"
