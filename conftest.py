"""Repository-level pytest configuration.

Lives at the rootdir so its options are registered before any test
package loads (plugin options must be defined in a root conftest).
"""

from hypothesis import settings

#: example budget of CI's oracle step, selected with
#: ``--hypothesis-profile=oracle-ci``; it reaches the tests that set no
#: ``max_examples`` of their own (tests/property/test_minerule_oracle.py)
settings.register_profile("oracle-ci", max_examples=1500, deadline=None)
#: example budget of CI's SQL differential step
#: (``--hypothesis-profile=sql-ci``): the sqlite3 and row-executor
#: differentials draw a fifth of it per property — 100 against
#: tier-1's 20, for the NULL and duplicate-key inputs that pick the
#: batch executor's join and grouping kernels
settings.register_profile("sql-ci", max_examples=500, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the checked-in golden output files from the "
        "current run instead of comparing against them",
    )
