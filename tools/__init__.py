"""Repo tooling: static checks that keep the simulator's contracts honest.

``tools.reprolint`` is the project linter (see its package docstring);
``tools/check_docs.py`` is the markdown link + rule-catalogue checker.
Both are stdlib-only and independent of ``repro`` — they parse source,
they never import the simulator.  ``tools/golden.py`` is the exception:
it runs the CLI to check and regenerate the golden run records.
"""
