import pytest

from reokit import automata, rescue


@pytest.fixture(scope="session")
def rescue_circuit():
    return rescue.builtin_circuit()


@pytest.fixture(scope="session")
def rescue_auto(rescue_circuit):
    # compiled once (about 0.15 s), shared across every test that needs it
    return automata.compile_circuit(rescue_circuit)


@pytest.fixture(scope="session")
def rescue_rules():
    return rescue.builtin_rules()
