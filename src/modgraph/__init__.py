"""Modular graph algebras, executable end to end.

Labeled digraphs form an algebra under composition by concrete graphs:
the parallel, sequential and clique products plus one operation per prime
graph.  This package evaluates terms of that algebra, computes modular
decompositions and their binarized trees, runs finite-algebra recognizers
over them, model-checks counting monadic second-order formulas on finite
structures, and realizes the leaf-encoded reconstruction of decomposition
trees inside their graphs, with machine verification at every step.
"""

from .graphs import (Alphabet, AutomorphismGroup, LabeledGraph, Permutation,
                     automorphism_group, find_isomorphism,
                     is_internally_disconnected, is_module,
                     is_vertex_transitive)
from .signature import (CLIQUE_OP, PAR_OP, SEQ_OP, DistinguishedSet, OpKind,
                        Signature, SignatureOp, Term, compose, compose_graph,
                        cp_equations, eval_term, is_prime, is_weakly_rigid_op,
                        prime_op, select_distinguished,
                        validate_weakly_rigid_signature)
from .mdec import (DecompositionCase, MDecNode, MDecPrimeTree, MDecTree,
                   NodeKind, binarize, brute_force_prime_modules, decompose,
                   format_tree, maximal_prime_modules, quotient_graph,
                   reconstruct, tree_to_term)
from .recognizer import (AlgebraReport, FiniteAlgebra, evaluate, evaluate_tree,
                         member, validate_algebra)
from .cms import (CmsFormula, ModelChecker, RelationalSignature, Structure,
                  graph_structure, model_check, parse_formula, tree_structure)
from .transduction import (EncodingTables, NodeClassification, PredicateLibrary,
                           ReprStructure, TransductionSchema, build_repr,
                           build_repr0, check_kappa_lemma, classify_nodes,
                           compute_encoding, encode_graph, transduction_schema,
                           verify_isomorphism)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
