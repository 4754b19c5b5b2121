"""Exact invariants of elliptic fibrations over a two-dimensional base:
Kodaira fibre classification from valuation profiles, resolution of
discriminant collisions by base blow-ups, fibre component lattices, and
local Tate-Shafarevich groups computed as kernels between cokernels of
integer matrices tensored with Q/Z."""
