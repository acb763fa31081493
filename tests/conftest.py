"""Shared fixtures: the default scenario and per-method precomputation.

Building the tube takes about a second, so anything derived from the
default config is session scoped and shared read-only across tests.
"""

import os

# one BLAS thread, as the CLI uses, before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

import granmpc.scenario as sc
from granmpc import ocp


@pytest.fixture(scope="session")
def cfg():
    return sc.load_config(None)


@pytest.fixture(scope="session")
def setup_granular(cfg):
    return ocp.MethodSetup.build(cfg, "granular")


@pytest.fixture(scope="session")
def setup_rsmpc(cfg):
    return ocp.MethodSetup.build(cfg, "single-rsmpc")


@pytest.fixture(scope="session")
def setup_rmpc(cfg):
    return ocp.MethodSetup.build(cfg, "single-rmpc")


@pytest.fixture(scope="session")
def tube(setup_granular):
    return setup_granular.tube
