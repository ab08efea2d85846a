"""Compressed string-query toolkit.

Suffix-array bundles and pattern ranges (:mod:`csq.text_core`),
repetitiveness measures (:mod:`csq.measures`), predecessor structures
(:mod:`csq.predecessor`), the run-length-compressed inverse-LF index
(:mod:`csq.rlbwt_ilf`), grammar-based LCP range-minimum and LCE queries
(:mod:`csq.grammar_lcp_rmq`), reduction gadgets with their verification
harness (:mod:`csq.gadgets`), and a command-line front end
(:mod:`csq.cli`).
"""

__version__ = "0.1.0"
