"""A pytest plugin that runs the tests on the Python kernel, as on a machine
where the C kernel cannot be built:

    PYTHONPATH=src python -m pytest -q -m "not acceptance" -p tests.python_kernel

Tests that need the C kernel skip, and ``engine.kernel`` reads "python".
"""


def pytest_configure(config):
    from covwalk import segments

    segments._kernel = False
