"""ExecutionState semantics: forking isolation, config keys, event queues."""

from hypothesis import given
from hypothesis import strategies as st

from repro.expr import bv, eq, var
from repro.vm.state import Event, ExecutionState, Status


def make_state(node=0, cells=8):
    return ExecutionState(node, memory_size=cells)


class TestForkIsolation:
    def test_fork_gets_fresh_sid(self):
        state = make_state()
        twin = state.fork()
        assert twin.sid != state.sid
        assert twin.forked_from == state.sid

    def test_memory_isolated(self):
        state = make_state()
        state.memory[3] = 7
        twin = state.fork()
        twin.memory[3] = 9
        assert state.memory[3] == 7

    def test_stacks_isolated(self):
        # Idle stacks are the shared empty tuple; a running state's stacks
        # are private lists, and a fork in the middle of an event copies them.
        state = make_state()
        assert state.opstack == () and state.call_stack == ()
        assert state.fork().opstack is state.opstack
        state.opstack = [1]
        state.call_stack = [10]
        twin = state.fork()
        twin.opstack.append(2)
        twin.call_stack.append(20)
        assert state.opstack == [1]
        assert state.call_stack == [10]

    def test_constraints_shared_until_diverge(self):
        state = make_state()
        state.add_constraint(eq(var("x"), bv(1)))
        twin = state.fork()
        assert twin.constraints is state.constraints  # shared tuple
        twin.add_constraint(eq(var("y"), bv(2)))
        assert len(state.constraints) == 1
        assert len(twin.constraints) == 2

    def test_event_queues_isolated_but_events_shared(self):
        # Event objects are immutable once queued, so forks share them;
        # push and pop replace the queue tuple of the state they act on.
        state = make_state()
        state.push_event(10, Event.TIMER, 0, generation=1)
        twin = state.fork()
        assert twin.events[0] is state.events[0]
        twin.push_event(20, Event.TIMER, 1)
        twin.pop_event()
        assert [e.time for e in state.events] == [10]
        assert [e.time for e in twin.events] == [20]

    def test_timer_generations_isolated(self):
        # The map is shared by forks and replaced on write.
        state = make_state()
        state.timer_generations = state.timer_generations.with_item(0, 1)
        twin = state.fork()
        assert twin.timer_generations is state.timer_generations
        twin.timer_generations = twin.timer_generations.with_item(0, 2)
        assert state.timer_generations[0] == 1
        assert twin.timer_generations[0] == 2

    def test_history_shared_immutably(self):
        state = make_state()
        state.record_sent(1, dest=2)
        twin = state.fork()
        twin.record_received(3, src=1)
        assert len(state.history) == 1
        assert len(twin.history) == 2

    def test_sym_counters_isolated(self):
        state = make_state()
        state.fresh_symbol_name("drop")
        twin = state.fork()
        twin.fresh_symbol_name("drop")
        assert state.sym_counters["drop"] == 1
        assert twin.sym_counters["drop"] == 2


class TestSymbolNames:
    def test_sequencing(self):
        state = make_state(node=7)
        assert state.fresh_symbol_name("x") == "n7.x"
        assert state.fresh_symbol_name("x") == "n7.x1"
        assert state.fresh_symbol_name("x") == "n7.x2"
        assert state.fresh_symbol_name("y") == "n7.y"

    def test_node_scoped(self):
        assert make_state(node=1).fresh_symbol_name("d") == "n1.d"
        assert make_state(node=2).fresh_symbol_name("d") == "n2.d"


class TestEventQueue:
    def test_ordered_by_time_then_seq(self):
        state = make_state()
        state.push_event(20, Event.TIMER, "b")
        state.push_event(10, Event.TIMER, "a")
        state.push_event(10, Event.TIMER, "c")
        order = [state.pop_event().data for _ in range(3)]
        assert order == ["a", "c", "b"]

    def test_peek_time(self):
        state = make_state()
        assert state.peek_event_time() is None
        state.push_event(42, Event.BOOT, None)
        assert state.peek_event_time() == 42

    def test_pop_empty(self):
        assert make_state().pop_event() is None


class TestConfigKey:
    def test_identical_forks_share_config(self):
        state = make_state()
        state.memory[0] = 5
        state.push_event(10, Event.RECV, "p")
        twin = state.fork()
        assert state.config_key() == twin.config_key()

    def test_memory_divergence_changes_config(self):
        state = make_state()
        twin = state.fork()
        twin.memory[0] = 1
        assert state.config_key() != twin.config_key()

    def test_history_divergence_changes_config(self):
        state = make_state()
        twin = state.fork()
        twin.record_sent(1, dest=1)
        assert state.config_key() != twin.config_key()

    def test_status_changes_config(self):
        state = make_state()
        twin = state.fork()
        twin.status = Status.ERROR
        assert state.config_key() != twin.config_key()

    def test_sid_not_part_of_config(self):
        a, b = make_state(), make_state()
        assert a.sid != b.sid
        assert a.config_key() == b.config_key()

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=8, max_size=8))
    def test_config_is_function_of_content(self, cells):
        a, b = make_state(), make_state()
        a.memory[:] = cells
        b.memory[:] = list(cells)
        assert a.config_key() == b.config_key()


class TestActivity:
    def test_active_statuses(self):
        state = make_state()
        assert state.is_active()
        state.status = Status.RUNNING
        assert state.is_active()
        for dead in (Status.ERROR, Status.TERMINATED, Status.INFEASIBLE):
            state.status = dead
            assert not state.is_active()
