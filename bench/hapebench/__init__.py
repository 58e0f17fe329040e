"""Two-clock benchmark of the ``repro`` engine (see ``bench/README.md``).

Everything here drives the engine through its public ``repro.*`` API only;
host time is attributed to ``src/repro`` layers by spans this package
records around its own calls into them.
"""
