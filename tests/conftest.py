from pathlib import Path

import pytest

from recipetext.corpus import LabelKind, load_corpus
from recipetext.textnorm import NormConfig, analyze

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mini6_dish():
    return load_corpus(FIXTURES / "mini6.xml", LabelKind.DISH_TYPE)


@pytest.fixture(scope="session")
def mini6_difficulty():
    return load_corpus(FIXTURES / "mini6.xml", LabelKind.DIFFICULTY)


@pytest.fixture(scope="session")
def boost40():
    return load_corpus(FIXTURES / "boost40.xml", LabelKind.DIFFICULTY)


@pytest.fixture(scope="session")
def plain_norm() -> NormConfig:
    return NormConfig()


@pytest.fixture(scope="session")
def analyze_all():
    """Builds the id -> Analysis mapping of a corpus."""
    def analyses(corpus, config=None):
        config = config or NormConfig()
        return {r.id: analyze(r, config) for r in corpus}
    return analyses
