"""repro — reproduction of *Peak-Performance DFA-based String Matching on
the Cell Processor* (Scarpazza, Villa & Petrini, IPPS 2007).

The package is layered bottom-up:

* :mod:`repro.cell` — Cell BE simulator substrate (SPU, local store, MFC,
  EIB/memory bandwidth model);
* :mod:`repro.dfa` — DFA construction (alphabet folding, Aho–Corasick,
  regex pipeline, minimization, partitioning);
* :mod:`repro.core` — the paper's contribution: DFA tiles, the five
  Table-1 kernels, composition, dynamic STT replacement, the vectorized
  engine and the high-level :class:`CellStringMatcher` API;
* :mod:`repro.baselines` — comparison algorithms (KMP, Boyer–Moore,
  Commentz–Walter, Wu–Manber, Bloom filters, naive);
* :mod:`repro.workloads` — synthetic dictionaries and traffic;
* :mod:`repro.analysis` — analytic models, paper reference numbers and
  report rendering.

Quickstart::

    from repro import CellStringMatcher
    matcher = CellStringMatcher(["virus", "worm", "trojan"])
    report = matcher.scan("A Virus and a WORM walked into a bar")
    assert report.total_matches == 2
"""

from .core.backends import ScanOutcome, backend_names
from .core.compiled import (ArtifactCache, CompiledDictionary,
                            compile_dictionary)
from .core.scan import VectorDFAEngine
from .core.matcher import CellStringMatcher, ScanReport
from .core.tile import DFATile
from .dfa.aho_corasick import AhoCorasick
from .dfa.alphabet import FoldMap, case_fold_32, identity_fold
from .dfa.automaton import DFA, MatchEvent
from .dfa.regex import compile_patterns, compile_regex

__version__ = "1.0.0"

__all__ = [
    "AhoCorasick",
    "ArtifactCache",
    "CellStringMatcher",
    "CompiledDictionary",
    "DFA",
    "DFATile",
    "FoldMap",
    "MatchEvent",
    "ScanOutcome",
    "ScanReport",
    "VectorDFAEngine",
    "backend_names",
    "compile_dictionary",
    "case_fold_32",
    "compile_patterns",
    "compile_regex",
    "identity_fold",
    "__version__",
]
