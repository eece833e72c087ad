import contextlib
import logging

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield ray
    ray.shutdown()


@contextlib.contextmanager
def _ray_data_log(level: int, pick):
    """The `ray.data` log records at `level` or above, while the block
    runs, that `pick(message)` maps to something other than None."""
    kept: list = []

    class _Keep(logging.Handler):
        def emit(self, record):
            v = pick(record.getMessage())
            if v is not None:
                kept.append(v)

    handler = _Keep(level)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        yield kept
    finally:
        logger.removeHandler(handler)


@pytest.fixture
def schema_mismatch_log():
    """The warnings Ray Data logs during the test when an operator's
    output blocks disagree on their schema."""
    with _ray_data_log(
        logging.WARNING, lambda m: m if "RefBundle with a different schema" in m else None
    ) as kept:
        yield kept


_PLAN = "Execution plan of Dataset "


@pytest.fixture
def execution_plans():
    """The physical plan of every Ray Data execution started during the
    test, from the line Ray Data logs at INFO as it starts one
    ("Execution plan of Dataset <id>: <plan>"), without the prefix."""
    with _ray_data_log(
        logging.INFO, lambda m: m.split(": ", 1)[1] if m.startswith(_PLAN) else None
    ) as kept:
        yield kept
