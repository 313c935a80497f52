"""Exact rational Witt vectors, abelian class field data, and finite-level
orbit models with the comparison map between the flow side and the
covering side.

Each name is imported from its own module (``wittlink.rings``,
``wittlink.witt``, ``wittlink.cft``, ``wittlink.orbits``,
``wittlink.bridge``, ...); see the module docstrings for representation
conventions.
"""

__version__ = "0.1.0"
