import pytest

# helpers.assert_close and the reference implementations check with assert;
# rewriting them as pytest rewrites the test modules keeps those checks
# running under python -O
pytest.register_assert_rewrite("helpers")
