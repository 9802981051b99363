"""Shared test settings: every hypothesis property runs derandomized and
without a deadline, so the suite gives the same result on every run.
``--hypothesis-profile latblock-long`` runs each property on ten times as
many examples."""

from hypothesis import settings

settings.register_profile("latblock", derandomize=True, deadline=None)
settings.register_profile(
    "latblock-long",
    settings.get_profile("latblock"),
    max_examples=10 * settings.get_profile("latblock").max_examples,
)
settings.load_profile("latblock")
