"""Shared test set-up."""

import warnings

# The hypothesis pytest plugin imports hypothesis.extra._patching (and with
# it libcst) only when it reports a failing example. That import warns that
# mypy_extensions.TypedDict is deprecated, which under -W error turns the
# report into an INTERNALERROR and hides the falsifying example. Importing it
# here, with only that warning ignored, keeps the report intact.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_configure(config):
    # warnings are errors, as in CI's ``pytest -W error``, so a run without
    # that flag fails where CI fails; a -W given on the command line still
    # takes precedence
    config.addinivalue_line("filterwarnings", "error")
