import pytest

from tatemirror import fukaya, theta


@pytest.fixture(autouse=True)
def cold_tables():
    """Start every test with empty structure-constant tables, so no test reads
    terms that an earlier test built; the returned function empties them again."""
    def clear():
        theta._SECTION_TABLE.clear()
        fukaya._FLOER_TABLE.clear()

    clear()
    return clear
