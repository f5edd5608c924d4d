import pytest
from hypothesis import given, strategies as st

from cstack.core import ClassicStack, ContractError, Data, EmptyStackError, StackInterface
from cstack.metrics import DATA_BYTES, MemoryMeter
from cstack import problems
from cstack.runner import LineSource, Runner


def entry(i, payload=None):
    return Data(i, payload if payload is not None else i * 11, None, 0)


def test_push_and_top():
    s = ClassicStack()
    s.push(entry(1, 5))
    assert s.len() == 1
    assert s.top(1).payload == 5


def test_lifo_order():
    s = ClassicStack()
    s.push(entry(1, 5))
    s.push(entry(2, 7))
    assert s.top(1).payload == 7
    assert s.len() == 2
    assert s.pop().payload == 7
    assert s.pop().payload == 5


def test_non_monotone_index_rejected():
    s = ClassicStack()
    s.push(entry(1))
    s.push(entry(2))
    with pytest.raises(ContractError):
        s.push(entry(1))


def test_pop_empty_raises():
    s = ClassicStack()
    with pytest.raises(EmptyStackError):
        s.pop()
    s.push(entry(1))
    s.pop()
    with pytest.raises(EmptyStackError):
        s.pop()


def test_top_depths():
    s = ClassicStack()
    for i, v in enumerate([5, 7, 9], 1):
        s.push(entry(i, v))
    assert s.top(1).payload == 9
    assert s.top(3).payload == 5
    assert s.top(4) is None
    with pytest.raises(ContractError):
        s.top(0)
    one = ClassicStack()
    one.push(entry(1, 5))
    assert one.top(2) is None
    assert ClassicStack().top(1) is None


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=60))
def test_matches_list_model(ops):
    """Opcode 0 pushes, anything else pops; compare against a plain list."""
    s = ClassicStack()
    model = []
    idx = 0
    for op in ops:
        if op == 0 or not model:
            idx += 1
            s.push(entry(idx))
            model.append(idx)
        else:
            assert s.pop().index == model.pop()
        assert s.len() == len(model)
    while model:
        assert s.pop().index == model.pop()


def test_meter_counts_entries():
    meter = MemoryMeter()
    s = ClassicStack(meter=meter)
    for i in range(1, 11):
        s.push(entry(i))
    assert meter.live_bytes == 10 * DATA_BYTES
    assert meter.peak_bytes == 10 * DATA_BYTES
    s.pop()
    assert meter.live_bytes == 9 * DATA_BYTES
    s.dispose()
    assert meter.live_bytes == 0
    # a disposed stack takes pushes as a new one does and frees them again
    s.push(entry(1))
    assert meter.live_bytes == DATA_BYTES
    s.dispose()
    assert meter.live_bytes == 0


def test_meter_defaults_to_a_fresh_one():
    s = ClassicStack()
    s.push(entry(1))
    assert s.meter.live_bytes == DATA_BYTES
    s.dispose()
    assert s.meter.live_bytes == 0


def test_accounting_error_importable_from_every_layer():
    import cstack
    from cstack import core, metrics

    assert cstack.AccountingError is core.AccountingError is metrics.AccountingError


@pytest.mark.parametrize(
    "record, field",
    [
        (entry(1), "index"),
        (problems.TestRunPayload(5, 0), "pops"),
        (problems.Point2D(1.0, 2.0), "x"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


class ListStack(StackInterface):
    """A user-defined stack that leaves pop_run to the interface's default."""

    def __init__(self):
        self.items = []

    def push(self, d):
        self.items.append(d)

    def pop(self):
        if not self.items:
            raise EmptyStackError("pop on empty stack")
        return self.items.pop()

    def top(self, j):
        return self.items[-j] if j <= len(self.items) else None

    def len(self):
        return len(self.items)


def test_default_pop_run_pops_one_entry():
    s = ListStack()
    with pytest.raises(EmptyStackError):
        s.pop_run()
    s.push(entry(1))
    s.push(entry(2))
    assert s.pop_run() == [entry(2)]
    text = "".join(f"{v},{c}\n" for v, c in [(5, 0), (7, 0), (9, 1), (4, 0)])
    report = Runner(problems.TestRun(), LineSource.from_text(text), ListStack()).run().report
    assert report == ["4", "9", "5"]


def test_classic_pop_run_is_the_default_one_pop():
    meter = MemoryMeter()
    s = ClassicStack(meter=meter)
    for i in (1, 2, 3):
        s.push(entry(i))
    assert [d.index for d in s.pop_run()] == [3]
    assert s.len() == 2 and meter.live_data == 2
