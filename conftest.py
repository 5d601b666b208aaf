"""Repository-level pytest configuration.

Lives at the rootdir so its options are registered before any test
package loads (plugin options must be defined in a root conftest).
"""

from hypothesis import settings

#: example budget of CI's oracle step, selected with
#: ``--hypothesis-profile=oracle-ci``; it reaches the tests that set no
#: ``max_examples`` of their own (tests/property/test_minerule_oracle.py)
settings.register_profile("oracle-ci", max_examples=1500, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the checked-in golden output files from the "
        "current run instead of comparing against them",
    )
