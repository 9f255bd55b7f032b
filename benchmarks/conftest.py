"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at the
``bench`` preset (same code paths as the paper-scale runs, scaled down so
the whole suite finishes in minutes).  The printed rows/series mirror what
the paper reports.
"""

import pytest

import repro.experiments as ex


@pytest.fixture(scope="session")
def preset():
    return ex.get_preset("bench")


@pytest.fixture(scope="session")
def ukdale(preset):
    return ex.build_corpus("ukdale", preset)


@pytest.fixture(scope="session")
def ideal(preset):
    return ex.build_corpus("ideal", preset)


@pytest.fixture(scope="session")
def edf_weak(preset):
    return ex.build_corpus("edf_weak", preset)


@pytest.fixture(scope="session")
def edf_ev(preset):
    return ex.build_corpus("edf_ev", preset)
