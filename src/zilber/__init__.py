"""Exact-arithmetic simplicial algebra over ℤ.

Subpackages cover the simplex category and shuffles (delta), simplicial
sets and simplicial abelian groups (simplicial), chain complexes and
Smith-normal-form homology (chains), the Dold-Kan correspondence
(doldkan), the Eilenberg-Zilber shuffle and Alexander-Whitney maps (ez),
ℕ-filtered complexes with Day convolution and skeletal filtrations
(filtration), spectral sequences of filtered complexes (spectral), and
coends over the truncated simplex category with the promonoidal checks
built on them (promonoidal).
"""

__version__ = "0.1.0"
