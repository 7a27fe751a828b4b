"""Symbolic and numeric verification for a cubic Schrodinger system.

Exact checks (multiplier conditions, divergence identities, symmetry
invariance, symmetry/conservation association), double reduction to an
invariant profile equation, closed-form solution classification, and a
periodic finite-difference integrator that audits the conserved
quantities it should preserve.
"""

__version__ = "0.1.0"
