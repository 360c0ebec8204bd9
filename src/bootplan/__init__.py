"""Near-minimum bootstrapping placement for FHE-style gate circuits.

Given a circuit DAG (White inputs, Blue gates, Red noise-expensive gates)
and a noise budget L, pick a small set of vertices to bootstrap so that no
noise level ever exceeds L.  The main pipeline is an LP relaxation over
interesting-path covering constraints, solved by row generation, followed
by level-indexed threshold rounding whose derandomized form is an
L-approximation (optimal for L = 1); `bootplan.pipeline.plan` runs it, or
another method, end to end.  An exhaustive optimum and simple baselines are
included, as is the approximation-preserving reduction from DAG vertex
deletion.  Each name is imported from its own module; this package root
re-exports none.
"""
