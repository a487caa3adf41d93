"""The one merge rule of forked shards: items dealt round robin come back in
item order, and the error of the first failing item is raised, as in one
process."""

import pytest

from dafed.workers import in_item_order, run_shards, until_error


def _square_unless_planted(x):
    if x in (3, 4):
        raise ValueError(f"planted failure at item {x}")
    return x * x


def test_until_error_stops_at_the_first_call_that_raises():
    assert until_error(_square_unless_planted, [0, 1, 2]) == ([0, 1, 4], None)
    done, error = until_error(_square_unless_planted, [2, 4, 5, 3])
    assert done == [4] and str(error) == "planted failure at item 4"


def test_in_item_order_merges_round_robin_shards():
    assert in_item_order([([0, 2, 4], None), ([1, 3], None)]) == [0, 1, 2, 3, 4]
    assert in_item_order([([], None), ([], None)]) == []
    # shard 0 fails at item 4, shard 1 at item 3, which comes first
    first, later = ValueError("item 3"), ValueError("item 4")
    with pytest.raises(ValueError) as exc:
        in_item_order([([0, 2], later), ([1], first)])
    assert exc.value is first


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_run_shards_raises_the_first_failing_items_error(processes):
    # items 3 and 4 fail: with 2 processes item 4 is in shard 0, here, and
    # item 3 in the forked shard; with 3, item 3 is here and item 4 forked
    assert run_shards(_square_unless_planted, [0, 1, 2, 5, 6], processes,
                      "shard") == [0, 1, 4, 25, 36]
    with pytest.raises(ValueError, match="^planted failure at item 3$"):
        run_shards(_square_unless_planted, list(range(7)), processes, "shard")


class _HoldsALambda(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.callback = lambda: None


class _NeedsTwoArguments(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("error,message", [
    (_HoldsALambda, "_HoldsALambda: holds a lambda"),
    (lambda: _NeedsTwoArguments("planted", "item 1"), "_NeedsTwoArguments: planted at item 1"),
], ids=["unpicklable", "unpickles-to-TypeError"])
def test_an_error_that_does_not_pickle_comes_back_named(error, message, capfd):
    # item 1 fails in the forked shard; its error cannot cross the pipe as it is
    def fn(x):
        if x == 1:
            raise error()
        return x

    with pytest.raises(ChildProcessError) as exc:
        run_shards(fn, [0, 1, 2, 3], 2, "shard")
    assert str(exc.value) == f"shard 1: {message}"
    assert capfd.readouterr().err == ""  # and no pickling traceback from the shard
    with pytest.raises(type(error())):  # in one process, the error as it was raised
        run_shards(fn, [0, 1, 2, 3], 1, "shard")
