"""Shared test settings: every hypothesis property runs derandomized and
without a deadline, so the suite gives the same result on every run."""

from hypothesis import settings

settings.register_profile("latblock", derandomize=True, deadline=None)
settings.load_profile("latblock")
