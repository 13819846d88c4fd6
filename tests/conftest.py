import time

import pytest
from hypothesis import settings

from zetalab.claim_audit import run_audit

# keep property sweeps reproducible across runs
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def default_audit():
    """Two default-config audits and the seconds they took together, shared
    by every test of the shipped report."""
    t0 = time.time()
    reports = (run_audit(), run_audit())
    return reports, time.time() - t0
