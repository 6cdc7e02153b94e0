"""The co-search methods the experiment harness can build, by name.

A leaf module with no imports: the CLI parser needs these names for
``choices=`` in every process it starts, and must not load the optimizers
(``repro.core``, SciPy) to get them.
"""

METHODS = (
    "unico",
    "unico_no_r",
    "msh_champion",
    "sh_champion",
    "hasco",
    "nsgaii",
    "mobohb",
    "random",
)
