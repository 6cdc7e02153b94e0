"""The co-search methods and scenarios the experiment harness can build, by name.

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

#: ``edge`` / ``cloud``: open-source spatial platform, analytical engine;
#: ``ascend``: cycle-accurate engine, depth-first fusion mapping tool
SCENARIOS = ("edge", "cloud", "ascend")
