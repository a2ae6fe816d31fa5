"""Exact-arithmetic toolkit for the quasi-alternating obstruction of the
two-twist-region ribbon knots: torsion of the branched double cover,
correction terms, and definite-lattice bounds."""

from .covers import (BranchedCoverPresentation, WhiteGraph, abelianized_minor,
                     homology, homology_invariants, kanenobu_presentation,
                     kanenobu_white_graph, lens_presentation,
                     white_graph_presentation)
from .diagrams import (LinkDiagram, braid_closure, figure_eight_diagram,
                       kanenobu_diagram, torus_knot_diagram, unknot_diagram,
                       white_graph_diagram, wirtinger_presentation)
from .foxcalc import (FreeGroupRingElem, Presentation, alexander_polynomial,
                      abelianize, fox_derivative, fox_matrix,
                      presentation_matrix)
from .groupring import (CyclotomicNumber, GroupRingElem, phi_component,
                        phi_reconstruct)
from .intmat import smith_normal_form
from .lattice import (GramLattice, build_catalog, c_bound,
                      enumerate_definite_lattices, m_invariant, qa_verdict)
from .laurent import Laurent
from .pipeline import (PipelineReport, family_member, run_family,
                       torsion_growth, torsion_kanenobu)
from .skein import (JonesPolynomial, goeritz_invariants, jones_derivative_at,
                    jones_polynomial, mullins_lambda)
from .torsion import (TorsionVector, d_invariants, d_lens_oracle,
                      torsion_from_minor)

__version__ = "0.1.0"
