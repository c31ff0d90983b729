"""The benchmark's workloads: fixed lists of ``elastweak`` command lines.

Each entry is the argument list a user would pass to ``elastweak`` (that is,
to ``elastweak.cli.main``), without ``--out``; the worker adds a private
output directory per invocation.  The inputs are fixed: no random data.
"""

COOK_E250 = ["run", "--problem", "nearly_incompressible", "--young", "250",
             "--poisson", "0.4999", "--gamma", "0.1"]

WORKLOADS = {
    "compressible_sweep": [
        ["run", "--problem", "compressible", "--k", "1",
         "--mesh-sizes", "32,64,128", "--bc-mode", mode]
        for mode in ("weak", "strong")
    ],
    "incompressible_sweep": [
        ["run", "--problem", "incompressible", "--k", "1", "--gamma", "0.1",
         "--mesh-sizes", "32,64,96"],
    ],
    "stability_diagnostics": [
        ["diagnose", "--problem", "compressible", "--k", "1",
         "--mesh-sizes", "8,16,24,32"],
        ["diagnose", "--problem", "incompressible", "--gamma", "0.1", "--k", "1",
         "--mesh-sizes", "8,16,24,32"],
    ],
    "cook_membrane": [
        *(["run", "--problem", "cook", "--k", "2", "--young", "1e5",
           "--poisson", "0.3333", "--mesh-sizes", "8,16,32", "--bc-mode", mode]
          for mode in ("weak", "strong")),
        COOK_E250 + ["--k", "1", "--mesh-sizes", "16,32,64,128"],
        COOK_E250 + ["--k", "2", "--mesh-sizes", "8,16,32"],
    ],
}


def option(argv, name):
    """Value of ``--name`` in an argument list (None when absent)."""
    flag = "--" + name
    return argv[argv.index(flag) + 1] if flag in argv else None

