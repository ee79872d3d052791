"""Bounded-scale lab for dilation embeddability and largeness of sets of naturals."""
