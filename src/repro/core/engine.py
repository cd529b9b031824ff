"""The SDE engine — this reproduction's KleeNet.

"KleeNet simulates a complete distributed system in a single process.  It
starts with k states representing the nodes in the network.  As in any
simulation, in each step KleeNet executes an event of a node and advances
the time to the next event in the queue.  If the symbolic execution of an
event handler produces new states, they're simply added to the state set.
The state mapping algorithms are triggered either at the node's local branch
(COB) or upon a node's message transmission (COW, SDS)."  — Section IV

This module is exactly that loop:

- a global, deterministic event queue over all execution states;
- event dispatch into the symbolic VM (boot / timer / reception handlers);
- failure-model application at reception (symbolic drops etc.);
- transmissions routed through the pluggable state mapper;
- growth sampling, state/memory/runtime caps (the paper aborts COB at the
  machine's memory limit — the caps reproduce that behaviour), and a final
  run report.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from typing import Dict, List, Optional, Tuple, Union

from ..lang.bytecode import CompiledProgram
from ..lang.compiler import compile_source
from ..net.packet import Packet
from ..net.topology import Topology
from ..obs.events import TraceEmitter
from ..obs.metrics import CounterViews, MetricsRegistry, Timer, report_snapshot
from ..oslib.kernel import HANDLER_BOOT, HANDLER_RECV, HANDLER_TIMER, NodeOS
from ..sim.clock import VirtualClock
from ..sim.queue import EventQueue
from ..solver import Solver
from ..vm.executor import Executor
from ..vm.state import CellValue, Event, ExecutionState, FrozenMap, Status
from .config import EngineConfig
from .mapping import StateMapper
from .reduce import StateReducer
from .stats import Sample, StatsRecorder

__all__ = ["SDEEngine", "RunReport", "PresetValue"]

# A preset global: one value for all nodes, or an explicit per-node mapping.
PresetValue = Union[int, Dict[int, int]]


class gc_paused:
    """Pause automatic cyclic garbage collection for a ``with`` block.

    Exploration allocates no cyclic garbage, yet every fork allocates
    several GC-tracked containers, so allocation-triggered collections
    would keep re-walking the whole live state graph and free nothing.
    The pause is process-global; nesting is safe, because only the
    outermost block re-enables, and only if the collector was enabled
    when it entered (docs/VM.md, "Memory management").
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, traceback) -> None:
        # Allocate nothing after re-enabling: the first GC-tracked
        # allocation would start a collection over the graph the block
        # built, before the caller had a chance to drop it.
        if self._was_enabled:
            gc.enable()


class RunReport(CounterViews):
    """Everything a benchmark or test wants to know about one SDE run.

    ``registry`` is the engine registry's snapshot (every subsystem
    counter, histogram and phase timer); ``solver_queries``, the
    ``mapping_stats``, ``solver_stats``, ``cache_stats``, ``net_stats``
    and ``reduce_stats`` dicts and the ``phases`` timings are views over
    it (:class:`~repro.obs.metrics.CounterViews`).
    A sequential run is never partial and never retries; a
    :class:`~repro.core.distributed.DistributedReport` overrides the
    three resilience fields below.
    """

    partial = False
    retries = 0
    failed_partitions = ()

    def __init__(self, engine: "SDEEngine") -> None:
        self.algorithm = engine.mapper.name
        self.aborted = engine.aborted
        self.abort_reason = engine.abort_reason
        self.runtime_seconds = engine.stats.elapsed()
        self.events_executed = engine.events_executed
        self.instructions = engine.executor.instructions_executed
        self.total_states = len(engine.states)
        self.active_states = sum(1 for s in engine.states.values() if s.is_active())
        self.error_states = [
            s for s in engine.states.values() if s.status == Status.ERROR
        ]
        self.group_count = engine.mapper.group_count()
        self.registry = engine.metrics.snapshot()
        self.samples: List[Sample] = list(engine.stats.samples)
        self.virtual_ms = engine.clock.now
        self.accounted_bytes = (self.samples[-1].accounted_bytes if self.samples else 0)
        # -- resilience extras ---------------------------------------------
        self.checkpoints_written = engine.checkpoints_written
        self.resumed = engine.resumed
        self.metrics = report_snapshot(self)

    def peak_states(self) -> int:
        return max((s.total_states for s in self.samples), default=self.total_states)

    def peak_accounted_bytes(self) -> int:
        return max((s.accounted_bytes for s in self.samples), default=0)

    def summary(self) -> str:
        status = "ABORTED" if self.aborted else "completed"
        lines = [
            f"[{self.algorithm}] {status} after {self.runtime_seconds:.2f}s"
            + (f" ({self.abort_reason})" if self.aborted else ""),
            f"  virtual time     : {self.virtual_ms} ms",
            f"  events executed  : {self.events_executed}",
            f"  instructions     : {self.instructions}",
            f"  states (total)   : {self.total_states}",
            f"  dscenarios/dstates: {self.group_count}",
            f"  accounted memory : {self.accounted_bytes / 1e6:.2f} MB",
            f"  error states     : {len(self.error_states)}",
            f"  solver queries   : {self.solver_queries}",
        ]
        for name, data in self.phases.items():
            lines.append(
                f"  phase {name:<11}: {data['seconds']:.3f}s"
                f" ({data['count']} enters)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RunReport({self.algorithm}, states={self.total_states},"
            f" groups={self.group_count}, aborted={self.aborted})"
        )


class SDEEngine:
    """Symbolic distributed execution of one scenario."""

    def __init__(
        self,
        program: Union[str, CompiledProgram],
        topology: Topology,
        mapper: StateMapper,
        config: EngineConfig,
        *,
        solver: Optional[Solver] = None,
        trace: Optional[TraceEmitter] = None,
    ) -> None:
        if isinstance(program, str):
            program = compile_source(program)
        self.config = config
        self.program = program
        self.topology = topology
        self.mapper = mapper
        self.medium = config.make_medium(topology)
        self.clock = VirtualClock(config.horizon_ms)
        self.solver = solver if solver is not None else config.make_solver()
        # The OS and the mapper's spawn callback reach the engine through
        # a weak proxy, so the engine graph has no back-references and a
        # dropped engine is freed by refcount, states and all.
        services = weakref.proxy(self)
        self.executor = Executor(
            program,
            self.solver,
            host=NodeOS(services),
            max_steps_per_event=config.max_steps_per_event,
            fuse_ops=config.fuse_ops,
        )
        self.failure_models = list(config.failure_models)
        self.preset_globals = dict(config.preset_globals or {})
        self.boot_times = (
            list(config.boot_times)
            if config.boot_times is not None
            else [0] * topology.node_count
        )
        if len(self.boot_times) != topology.node_count:
            raise ValueError("boot_times must list one time per node")
        self.max_states = config.max_states
        self.max_accounted_bytes = config.max_accounted_bytes
        self.max_wall_seconds = config.max_wall_seconds
        self.check_invariants = config.check_invariants

        self.states: Dict[int, ExecutionState] = {}
        self.packets: Dict[int, Packet] = {}  # pid -> packet (for reports)
        self.scheduler: EventQueue[int] = EventQueue()
        self.events_executed = 0
        self.aborted = False
        self.abort_reason = ""
        self._broadcast_ids = itertools.count(1)
        self._started = False
        # Checkpointing (see repro.core.resilience): with a path set, the
        # run loop snapshots itself every N events / T wall seconds so a
        # killed run can continue via `repro run --resume`.
        self.checkpoint_path = config.checkpoint_path
        self.checkpoint_every_events = config.checkpoint_every_events
        self.checkpoint_every_seconds = config.checkpoint_every_seconds
        self.checkpoints_written = 0
        self.resumed = False
        self._last_checkpoint_events = 0
        self._last_checkpoint_elapsed = 0.0
        self.stats = StatsRecorder(
            len(program.code),
            sample_every_events=config.sample_every_events,
        )
        # Observability: `trace is None` means tracing off — every emit
        # site guards on that, so the disabled path allocates nothing.
        self.trace = trace
        self.execute_timer = Timer("execute")
        self.map_timer = Timer("map")
        self.handles = (self.execute_timer, self.map_timer)
        # The run's counters and timers: every subsystem's handles.
        self.metrics = MetricsRegistry()
        self.metrics.adopt(self)
        self.medium.trace = trace
        self.metrics.adopt(self.medium)
        self.solver.attach_observability(trace, self.metrics)
        mapper.bind(
            lambda state: services._register_state(state),
            trace=trace,
            metrics=self.metrics,
        )
        # Symmetry/POR reduction (repro.core.reduce): built only when a
        # reduction flag is set, so default runs carry zero overhead.
        self.reducer: Optional[StateReducer] = None
        if config.symmetry or config.por:
            self.reducer = StateReducer(
                topology,
                self.program,
                symmetry=config.symmetry,
                por=config.por,
                trace=trace,
                medium=self.medium,
                metrics=self.metrics,
            )
        self._reduce_candidates: List[ExecutionState] = []
        self._mapping_twins: List[ExecutionState] = []
        self._mapping_active = False

    # -- EngineServices (used by NodeOS) ---------------------------------------

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def guest_unicast(
        self, sender: ExecutionState, dest: int, payload: List[CellValue]
    ) -> None:
        from ..vm.syscalls import SyscallAbort

        if dest == sender.node:
            raise SyscallAbort("unicast to self")
        for node, deliver_at in self.medium.plan_unicast(
            sender, dest, len(payload)
        ):
            self._transmit(sender, node, payload, 0, deliver_at)

    def guest_broadcast(self, sender: ExecutionState, payload: List[CellValue]) -> None:
        broadcast_id = next(self._broadcast_ids)
        # Broadcast = a series of unicasts to every neighbour (footnote 1).
        for node, deliver_at in self.medium.plan_broadcast(
            sender, len(payload)
        ):
            self._transmit(sender, node, payload, broadcast_id, deliver_at)

    def _transmit(
        self,
        sender: ExecutionState,
        dest_node: int,
        payload: List[CellValue],
        broadcast_id: int,
        deliver_at: int,
    ) -> None:
        packet = Packet(
            sender.node, dest_node, tuple(payload), sender.clock, broadcast_id
        )
        self.packets[packet.pid] = packet
        with self.map_timer:
            self._mapping_active = True
            try:
                receivers = self.mapper.map_transmission(sender, dest_node)
            finally:
                self._mapping_active = False
        sender.record_sent(packet.pid, dest_node)
        if self.trace is not None:
            self.trace.emit(
                "packet.send",
                src=sender.node,
                dest=dest_node,
                t=sender.clock,
                # Boolean, not the group id: broadcast ids are allocated
                # from a watermarked counter and differ across workers.
                bcast=broadcast_id is not None,
                pid=packet.pid,
            )
        for receiver in receivers:
            self.stats.touch(receiver)
            receiver.record_received(packet.pid, sender.node)
            receiver.push_event(deliver_at, Event.RECV, packet)
            self._schedule(receiver)
            if self.trace is not None:
                self.trace.emit(
                    "packet.deliver",
                    node=receiver.node,
                    src=sender.node,
                    t=deliver_at,
                    pid=packet.pid,
                    sid=receiver.sid,
                )
        if self.reducer is not None and self._mapping_twins:
            self._reduce_mapping_twins(receivers, packet)

    def _reduce_mapping_twins(
        self, receivers: List[ExecutionState], packet: Packet
    ) -> None:
        """Sleep redundant non-receiving twins created by this mapping.

        Mapper spawns during ``map_transmission`` that are *not* in the
        receiver list exist only to pair other scenario combinations with
        the non-delivery of this packet (SDS target twins, COW bystander
        duplicates).  When such a twin's canonical form is already covered
        and the delivery is independent of its pending events, exploring
        it cannot reach a new configuration — the partial-order sleep.
        """
        twins, self._mapping_twins = self._mapping_twins, []
        receiving = {receiver.sid for receiver in receivers}
        for twin in twins:
            if twin.sid in receiving:
                self._reduce_candidates.append(twin)
                continue
            if self.reducer.observe_twin(twin, packet):
                twin.status = Status.PRUNED
                if self.trace is not None:
                    self.trace.emit(
                        "reduce.sleep",
                        node=twin.node,
                        t=twin.clock,
                        sid=twin.sid,
                    )

    # -- setup --------------------------------------------------------------------

    def setup(self) -> None:
        """Create the k boot states, preset globals, schedule boot events."""
        if self._started:
            raise RuntimeError("engine already set up")
        self._started = True
        if self.trace is not None:
            self.trace.emit(
                "run.start",
                algorithm=self.mapper.name,
                nodes=self.topology.node_count,
            )
        initial: List[ExecutionState] = []
        for node in self.topology.nodes():
            state = self.executor.make_initial_state(node)
            self._apply_presets(state)
            state.freeze()
            state.push_event(self.boot_times[node], Event.BOOT, None)
            initial.append(state)
            self.states[state.sid] = state
        self.mapper.register_initial(initial)
        for state in initial:
            self._schedule(state)

    def _apply_presets(self, state: ExecutionState) -> None:
        for name, preset in self.preset_globals.items():
            if name not in self.program.globals_layout:
                raise KeyError(f"program has no global {name!r} to preset")
            address, size = self.program.globals_layout[name]
            value = preset.get(state.node, 0) if isinstance(preset, dict) else preset
            if size != 1:
                raise ValueError(f"cannot preset array global {name!r}")
            state.memory[address] = value & 0xFFFFFFFF

    # -- the main loop ----------------------------------------------------------------

    def run(self) -> RunReport:
        # The report is assembled inside the pause too: re-enabling the
        # collector first would let its next pass walk the live graph.
        with gc_paused():
            self.run_until()
            self._sample_and_check_caps(force=True)
            if self.trace is not None:
                self.trace.emit(
                    "run.end",
                    algorithm=self.mapper.name,
                    events=self.events_executed,
                )
            return RunReport(self)

    def run_until(self, split_events: Optional[int] = None) -> None:
        """Drive the event loop, optionally stopping at a split point.

        With ``split_events`` set, the loop stops once that many events
        have executed; the pending entries stay queued, so the run can be
        snapshotted (:meth:`scheduler_snapshot`) and resumed elsewhere.
        Without it this is the complete run loop.  The cyclic collector is
        paused throughout (:class:`gc_paused`).
        """
        with gc_paused():
            if not self._started:
                self.setup()
            if self.reducer is not None and not self.reducer.seeded:
                # Resumed checkpoints / restored worker partitions inherit
                # states that must count as covered, never be parked.
                self.reducer.seed(self.states.values())
            while True:
                if split_events is not None and self.events_executed >= split_events:
                    break  # event-count split point reached
                entry = self.scheduler.pop(self._entry_valid)
                if entry is None:
                    break  # no runnable state left
                event_time, sid = entry
                if self.clock.expired(event_time):
                    break  # simulation horizon reached
                state = self.states[sid]
                self.stats.touch(state)
                event = state.pop_event()
                self.clock.advance_to(event_time)
                state.clock = event_time
                with self.execute_timer:
                    self._dispatch(state, event)
                if self.reducer is not None:
                    self._apply_reduction()
                self.events_executed += 1
                if self._checkpoint_due():
                    self.write_checkpoint()
                if self.stats.should_sample(self.events_executed):
                    self._sample_and_check_caps()
                if self.check_invariants:
                    self.mapper.check_invariants()
                if self.aborted:
                    break

    # -- checkpointing (repro.core.resilience) ---------------------------------

    def _checkpoint_due(self) -> bool:
        if self.checkpoint_path is None:
            return False
        if (
            self.checkpoint_every_events is not None
            and self.events_executed - self._last_checkpoint_events
            >= self.checkpoint_every_events
        ):
            return True
        return (
            self.checkpoint_every_seconds is not None
            and self.stats.elapsed() - self._last_checkpoint_elapsed
            >= self.checkpoint_every_seconds
        )

    def write_checkpoint(self, path: Optional[str] = None) -> str:
        """Snapshot the full engine to disk (atomic, checksummed).

        Safe between events: every state is quiescent and the scheduler
        snapshot preserves the sequential pop order, the same property the
        distributed runner's cut relies on.
        """
        from .resilience import save_checkpoint

        target = path if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        save_checkpoint(self, target)
        self.checkpoints_written += 1
        self._last_checkpoint_events = self.events_executed
        self._last_checkpoint_elapsed = self.stats.elapsed()
        if self.trace is not None:
            self.trace.emit(
                "checkpoint.write",
                events=self.events_executed,
                path=str(target),
            )
        return str(target)

    def scheduler_snapshot(self) -> List[Tuple[int, int]]:
        """Pending work as ``(time, sid)`` pairs in deterministic pop order.

        Exactly one entry per runnable state — the first *valid* heap entry,
        in heap order — so re-pushing the pairs into a fresh
        :class:`EventQueue` reproduces this engine's scheduling order (ties
        at equal times pop in the captured sequence).
        """
        out: List[Tuple[int, int]] = []
        seen = set()
        for event_time, _, sid in self.scheduler.entries():
            if sid in seen:
                continue
            if self._entry_valid(event_time, sid):
                seen.add(sid)
                out.append((event_time, sid))
        return out

    def _entry_valid(self, event_time: int, sid: int) -> bool:
        # PRUNED states stay schedulable: their events must surface so the
        # reducer can decide wake-vs-sleep per delivery (_dispatch_pruned).
        state = self.states.get(sid)
        return (
            state is not None
            and (state.status == Status.IDLE or state.status == Status.PRUNED)
            and state.peek_event_time() == event_time
        )

    def _schedule(self, state: ExecutionState) -> None:
        if state.events and state.status in (Status.IDLE, Status.PRUNED):
            self.scheduler.push(state.peek_event_time(), state.sid)

    def _register_state(self, state: ExecutionState) -> None:
        """Spawn callback for mappers and failure models."""
        self.states[state.sid] = state
        self.stats.add(state)
        self._schedule(state)
        if self.reducer is not None:
            if self._mapping_active:
                self._mapping_twins.append(state)
            else:
                self._reduce_candidates.append(state)

    # -- event dispatch ---------------------------------------------------------------

    def _dispatch(self, state: ExecutionState, event: Event) -> None:
        if state.status == Status.PRUNED:
            self._dispatch_pruned(state, event)
            return
        if event.kind == Event.BOOT:
            self._run_handler(state, HANDLER_BOOT, ())
        elif event.kind == Event.TIMER:
            if NodeOS.timer_event_is_live(state, event) and self.program.has_handler(
                HANDLER_TIMER
            ):
                self._run_handler(state, HANDLER_TIMER, (event.data,))
            else:
                self._schedule(state)  # stale timer: just keep going
        elif event.kind == Event.RECV:
            self._dispatch_reception(state, event.data)
        else:  # pragma: no cover - exhaustive over event kinds
            raise AssertionError(f"unknown event kind {event.kind!r}")

    def _dispatch_pruned(self, state: ExecutionState, event: Event) -> None:
        """An event surfaced on a parked state: wake or swallow.

        The reducer wakes the state for a reception whose configuration ⊕
        delivery class no active state has covered (restoring exactness
        for reception-driven divergence); everything else is slept.
        """
        if self.reducer.on_pruned_event(state, event) == "wake":
            state.status = Status.IDLE
            if self.trace is not None:
                self.trace.emit(
                    "reduce.wake", node=state.node, t=state.clock, sid=state.sid
                )
            self._dispatch(state, event)
        else:
            self._schedule(state)  # keep draining the parked queue

    def _run_handler(
        self, state: ExecutionState, handler: str, args: Tuple[int, ...]
    ) -> List[ExecutionState]:
        if not self.program.has_handler(handler):
            self._schedule(state)
            return [state]
        results = self.executor.run_event(
            state, handler, args, on_fork=self._on_local_fork
        )
        for result in results:
            self.states.setdefault(result.sid, result)
            self._schedule(result)
            if self.trace is not None and not result.is_active():
                self.trace.emit(
                    "state.terminate",
                    node=result.node,
                    t=result.clock,
                    status=result.status,
                    sid=result.sid,
                )
        if self.reducer is not None:
            self._reduce_candidates.extend(results)
        return results

    def _on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        for child in children:
            self.states[child.sid] = child
            self.stats.add(child)
            if self.trace is not None:
                self.trace.emit(
                    "state.fork",
                    node=parent.node,
                    t=parent.clock,
                    reason="local",
                    parent=parent.sid,
                    child=child.sid,
                )
        self.mapper.on_local_fork(parent, children)

    def _dispatch_reception(self, state: ExecutionState, packet: Packet) -> None:
        if self.reducer is not None:
            # Mark (configuration ⊕ delivery) covered by an active state,
            # so parked alpha-twins of this state can sleep through the
            # same delivery class instead of waking.
            self.reducer.record_delivery(state, packet)
        # Failure models first: they may fork the state (symbolic drop /
        # duplicate / reboot decisions).  Those forks are node-local
        # branches: COB reacts by forking dscenarios.
        plans = [(state, 1, False)]
        for model in self.failure_models:
            plans, forks = model.apply(plans, packet)
            for parent, twin in forks:
                self._register_state(twin)
                if self.trace is not None:
                    self.trace.emit(
                        "state.fork",
                        node=parent.node,
                        t=parent.clock,
                        reason="failure",
                        parent=parent.sid,
                        child=twin.sid,
                    )
                self.mapper.on_local_fork(parent, [twin])
        for variant, deliveries, reboot in plans:
            if reboot:
                self._reboot(variant)
            elif deliveries == 0:
                self._schedule(variant)  # packet dropped: nothing to run
            else:
                self._deliver_to_handler(variant, packet, deliveries)

    def _deliver_to_handler(
        self, state: ExecutionState, packet: Packet, deliveries: int
    ) -> None:
        wave = [state]
        for _ in range(deliveries):
            next_wave: List[ExecutionState] = []
            for current in wave:
                if not current.is_active():
                    continue
                current.current_packet = packet
                results = self._run_handler(
                    current, HANDLER_RECV, (packet.src, len(packet))
                )
                for result in results:
                    result.current_packet = None
                    next_wave.append(result)
            wave = next_wave

    def _reboot(self, state: ExecutionState) -> None:
        """Crash-and-reboot: wipe RAM, cancel timers, re-run on_boot."""
        if self.trace is not None:
            self.trace.emit(
                "state.reboot", node=state.node, t=state.clock, sid=state.sid
            )
        state.memory = [0] * self.program.memory_size
        for address, value in self.program.initializers:
            state.memory[address] = value & 0xFFFFFFFF
        self._apply_presets(state)
        state.freeze()
        state.timer_generations = FrozenMap(
            (timer_id, generation + 1)
            for timer_id, generation in state.timer_generations.items()
        )
        state.push_event(state.clock, Event.BOOT, None)
        self._schedule(state)

    # -- symmetry/POR reduction (repro.core.reduce) -----------------------------------

    def _apply_reduction(self) -> None:
        """Park post-dispatch duplicates under the canonical seen-set.

        Runs after each event completes — never mid-delivery-wave, so a
        multi-delivery plan always finishes on live states.  Candidates
        are every state touched or created by the dispatch; a candidate
        whose canonical form is already covered is parked (not dropped:
        it stays a dstate member and can be woken by an uncovered
        delivery).
        """
        candidates, self._reduce_candidates = self._reduce_candidates, []
        reducer = self.reducer
        if not reducer.enabled:
            return
        for state in candidates:
            if reducer.observe(state):
                state.status = Status.PRUNED
                if self.trace is not None:
                    self.trace.emit(
                        "reduce.prune",
                        node=state.node,
                        t=state.clock,
                        sid=state.sid,
                    )

    # -- sampling & caps --------------------------------------------------------------

    def _sample_and_check_caps(self, force: bool = False) -> Optional[Sample]:
        sample = self.stats.record(
            self.states.values(),
            self.clock.now,
            self.events_executed,
            self.mapper.group_count(),
        )
        if self.check_invariants:
            self._check_sample(sample)
        if self.aborted:
            return sample
        if self.max_states is not None and sample.total_states > self.max_states:
            self._abort(f"state cap exceeded ({sample.total_states}"
                        f" > {self.max_states})")
        elif (
            self.max_accounted_bytes is not None
            and sample.accounted_bytes > self.max_accounted_bytes
        ):
            self._abort(
                f"memory cap exceeded ({sample.accounted_bytes}"
                f" > {self.max_accounted_bytes} bytes)"
            )
        elif (
            self.max_wall_seconds is not None
            and self.stats.elapsed() > self.max_wall_seconds
        ):
            self._abort(f"wall-clock cap exceeded ({self.max_wall_seconds}s)")
        return sample

    def _check_sample(self, sample: Sample) -> None:
        """The running totals must equal a full recount of every state."""
        live, accounted = self.stats.recount(self.states.values())
        if (sample.live_states, sample.accounted_bytes) != (live, accounted):
            raise AssertionError(
                f"sample totals drifted: {sample.live_states} live /"
                f" {sample.accounted_bytes} bytes, recount gives {live} /"
                f" {accounted}"
            )

    def _abort(self, reason: str) -> None:
        # Mirrors the paper's Table I: "COB ... aborted" at the memory cap.
        self.aborted = True
        self.abort_reason = reason

    # -- conveniences for tests/examples ----------------------------------------------

    def states_of_node(self, node: int) -> List[ExecutionState]:
        return [s for s in self.states.values() if s.node == node]

    def state_census(self) -> Dict[int, int]:
        """States per node — the quickest way to see where growth happens
        (on-path nodes and their overhearing neighbours dominate)."""
        census: Dict[int, int] = {node: 0 for node in self.topology.nodes()}
        for state in self.states.values():
            census[state.node] += 1
        return census

    def error_states(self) -> List[ExecutionState]:
        return [s for s in self.states.values() if s.status == Status.ERROR]
