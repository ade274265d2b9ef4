import pytest
from hypothesis import Phase, settings

from tatemirror import fukaya, theta

# The fault census (tools/faults.py) reads only whether a run fails and its
# first failing test, so its runs skip the shrink phase: a failing example is
# reported as first found.  Registered here, before any test module applies
# its own @settings, so that ``--hypothesis-profile=no-shrink`` loads it and
# those settings inherit it.
settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])


@pytest.fixture(autouse=True)
def cold_tables():
    """Start every test with empty structure-constant tables, so no test reads
    terms that an earlier test built; the returned function empties them again."""
    def clear():
        theta._SECTION_TABLE.clear()
        fukaya._FLOER_TABLE.clear()

    clear()
    return clear
