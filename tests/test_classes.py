import pytest

import ffcount.classes as fc
import ffcount.mv_counts as mc
from ffcount.ff import field_make

F2 = field_make(2, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: fc.exact_count("nonsense", 2, 2), "unknown class"),
    (lambda: fc.exact_count("powerful", 2, 4), "needs an integer power exponent"),
    (lambda: fc.exact_count("powerfree", 2, 4, s=1), "needs an integer power exponent"),
    (lambda: fc.oracle_count("powerful", 2, 2, F2), "needs an integer power exponent"),
    (lambda: fc.count_report("reducible", 2, 4, s=2), "takes no power exponent"),
    (lambda: fc.exact_count("decomposable_mv", 2, 4), "has no exact function"),
    (lambda: fc.count_report("irreducible", 2, 4), "has no report function"),
    (lambda: fc.oracle_count("all", 2, 2, F2), "has no oracle function"),
])
def test_lookups_check_class_and_s(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_entries_look_their_functions_up_when_called(monkeypatch):
    # a wrapper bound over the module attribute after import must run
    monkeypatch.setattr(mc, "red_exact", lambda r, n, q=None: "rebound")
    assert fc.exact_count("reducible", 2, 3) == "rebound"
