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


@pytest.fixture
def schema_mismatch_log():
    """The warnings Ray Data logs during the test when an operator's
    output blocks disagree on their schema."""
    import logging

    messages: list = []

    class _Keep(logging.Handler):
        def emit(self, record):
            if "RefBundle with a different schema" in record.getMessage():
                messages.append(record.getMessage())

    handler = _Keep(logging.WARNING)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
