"""Hypothesis example budgets.

A property test that sets no budget of its own runs the small one by
default; ``--hypothesis-profile=ci`` gives it a larger one.
"""

from hypothesis import settings

settings.register_profile("small", max_examples=30)
settings.register_profile("ci", max_examples=300)
settings.load_profile("small")
