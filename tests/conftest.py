from contextlib import contextmanager

import pytest
from hypothesis import settings

import blocksel.solver as solver

settings.register_profile("exact", max_examples=50, derandomize=True, deadline=None)
settings.load_profile("exact")


@pytest.fixture
def forced():
    """Solve with one candidate generator, whatever the subproblem.

    Inside `with forced("cover"):`, solver.route sends every subproblem to
    cover; the tests cross-check the generators this way.
    """

    @contextmanager
    def force(path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "route", lambda rp: path)
            yield

    return force
