"""Build script for the optional compiled extension.

The package is pure Python except for kmagic._backtrack, hand-written C
that holds six compiled twins: the backtracking kernel of
kmagic._backtrack_py.search, the magic-sum check of
kmagic._backtrack_py.magic_sum, the Petersen 2-factor split of
kmagic._backtrack_py.petersen_split, the split search (one call per
connected component, every piece search inside it) of
kmagic._backtrack_py.split_search, the vertex profile (degrees and
components) of kmagic._backtrack_py.vertex_profile and the maximum
matching (Edmonds' blossom search, behind every perfect matching and
f-factor) of kmagic._backtrack_py.maximum_matching.  The C module has
one matcher, the search of maximum_matching: each round of its Petersen
split is a maximum matching of the out/in incidence graph, found by that
same search, as in the pure twin.  Like the pure twins, the six read their graph argument (n, us, vs) through one
reader, read_edges, which holds them to the input contract stated in
the header of both modules.
It needs only a C compiler; if none is available the extension is
skipped and kmagic._twin falls back to the pure twins at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("kmagic._backtrack", ["src/kmagic/_backtrack.c"], optional=True)])
