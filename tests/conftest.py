"""Hypothesis profiles for the test suite.

The default profile keeps a local run short. CI runs the suite with
`--hypothesis-profile=ci`: properties that pin no example count run more
examples there, with no deadline, since shared runners time unevenly.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
