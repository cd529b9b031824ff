"""Symmetry + partial-order reduction over the SDS frontier.

Every workload this reproduction runs is maximally symmetric — grids,
lines and rings of *identical* programs — yet the engine explores each
node's states as if unique.  This module attacks the state count itself,
the multiplier on everything the solver/VM/distribution work made fast:

- **Symmetry reduction** — every state reaching an idle point is reduced
  to a *canonical configuration fingerprint*: guest memory, pending
  events and the live-projected canonical constraint groups (the
  content-based :class:`~repro.solver.constraints.ConstraintSet`
  machinery from the solver overhaul), alpha-renamed so symbolic variable
  identities don't matter, and minimized over the node's *stabilizer*
  subgroup of the topology's automorphism group (so packet provenance
  from interchangeable neighbours collapses).  A seen-set of canonical
  forms prunes duplicates before they re-enter the frontier.

- **Partial-order reduction** — mapper-created non-receiving twins are
  the engine's communication interleavings: each one represents "this
  packet reaches the target in a different scenario pairing".  When a
  twin's canonical form is already covered *and* the triggering delivery
  is independent of everything pending on the twin (disjoint channels and
  payload footprints, commuting receive handler), the exchange provably
  cannot reach a new node-local configuration, so the twin is put to
  sleep instead of being explored.

Pruned states are parked (``Status.PRUNED``), not discarded: they stay
registered in their dstates so mapper invariants hold, and a later
delivery that would reach an *uncovered* configuration class wakes them
up (see :meth:`StateReducer.on_pruned_event`).  Soundness — which
reported verdicts are preserved, under exactly which statically-checked
program assumptions — is argued in ``docs/REDUCTION.md``; the reducer
disables itself (``reduce.disabled`` counter) on programs the
conservative analysis cannot certify.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..expr.ast import BoolConst, BVConst, BVVar
from ..lang.bytecode import CompiledProgram, Op
from ..net.packet import Packet
from ..net.topology import Topology
from ..obs.metrics import Counter
from ..oslib.kernel import HANDLER_RECV
from ..vm.state import Event, ExecutionState, Status

__all__ = [
    "MAX_AUTOMORPHISMS",
    "StateReducer",
    "analyze_recv_handler",
    "automorphisms",
    "canonical_state_form",
    "canonical_violations",
    "delivery_independent",
    "node_orbit",
    "permute_state",
    "state_fingerprint",
]

#: Enumeration cap on the automorphism group (mesh-k has k! of them).
#: Truncation is sound — canonicalization over any identity-containing
#: subset is still a well-defined equivalence, just a coarser reduction.
MAX_AUTOMORPHISMS = 720

#: Constraint sets larger than this are not fingerprinted (the state is
#: left untouched); serialization cost would dwarf the pruning win.
MAX_FINGERPRINT_CONJUNCTS = 2000

#: (name, node count, edges, limit) -> the enumerated permutations.
_IDENTITY_CACHE: Dict[
    Tuple[str, int, frozenset, int], Tuple[Tuple[int, ...], ...]
] = {}


# ---------------------------------------------------------------------------
# Topology automorphisms
# ---------------------------------------------------------------------------


def automorphisms(
    topology: Topology, limit: int = MAX_AUTOMORPHISMS
) -> Tuple[Tuple[int, ...], ...]:
    """The node-permutation automorphism group of the topology graph.

    Returned as sorted tuples ``perm`` with ``perm[node] == image``.
    Enumeration stops at ``limit`` permutations (the identity is always
    included), so highly symmetric graphs degrade to a subset rather
    than an O(k!) blowup.  The search maps nodes in BFS order, on an
    explicit stack: a node's candidate images are the unused neighbours
    of its BFS parent's image (any unused node for a component's root)
    of its degree whose used neighbours are exactly the images of its
    already-mapped neighbours.
    """
    cache_key = (topology.name, topology.node_count, topology.edges, limit)
    cached = _IDENTITY_CACHE.get(cache_key)
    if cached is not None:
        return cached
    count = topology.node_count
    neighbors = [topology.neighbors(node) for node in range(count)]
    parent: Dict[int, Optional[int]] = {}  # in BFS order, per component
    for root in range(count):
        if root not in parent:
            component = topology.next_hop_table(root)  # BFS insertion order
            component[root] = None
            parent.update(component)
    order = list(parent)
    image: List[Optional[int]] = [None] * count
    used = [False] * count

    def candidates(depth: int):
        node = order[depth]
        anchor = parent[node]
        pool = range(count) if anchor is None else neighbors[image[anchor]]
        wanted = {image[w] for w in neighbors[node] if image[w] is not None}
        # Lazy: whenever this level advances, every deeper node is unmapped.
        return (
            c
            for c in pool
            if not used[c]
            and len(neighbors[c]) == len(neighbors[node])
            and {w for w in neighbors[c] if used[w]} == wanted
        )

    found: Set[Tuple[int, ...]] = {tuple(range(count))}
    stack = [candidates(0)]
    while stack and len(found) < limit:
        node = order[len(stack) - 1]
        if image[node] is not None:
            used[image[node]] = False
        image[node] = choice = next(stack[-1], None)
        if choice is None:
            stack.pop()
        elif len(stack) == count:
            found.add(tuple(image))
        else:
            used[choice] = True
            stack.append(candidates(len(stack)))
    result = tuple(sorted(found))
    _IDENTITY_CACHE[cache_key] = result
    return result


def node_orbit(node: int, autos: Sequence[Tuple[int, ...]]) -> int:
    """Canonical representative of ``node``'s orbit (the minimal image)."""
    return min(perm[node] for perm in autos)


# ---------------------------------------------------------------------------
# Alpha-renamed canonical serialization
# ---------------------------------------------------------------------------


class _Canon:
    """Order-of-first-appearance renaming of symbolic variable names.

    Symbolic names embed the creating node and a per-state counter
    (``n2.reading3``), so two alpha-equivalent states never share names;
    renaming by appearance order erases exactly that."""

    __slots__ = ("names",)

    def __init__(self, base: Optional["_Canon"] = None) -> None:
        self.names: Dict[str, int] = dict(base.names) if base is not None else {}

    def rename(self, name: str) -> int:
        index = self.names.get(name)
        if index is None:
            index = len(self.names)
            self.names[name] = index
        return index


def _expr_template(root) -> Tuple[tuple, tuple]:
    """The pre-order token stream of ``root`` with ``None`` at each
    variable, plus the variable slots ``(position, name, width)`` in
    pre-order (iterative: constraint chains from long loops exceed the
    recursion limit)."""
    tokens: List = []
    slots: List = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, BVVar):
            slots.append((len(tokens), node.name, node.width))
            tokens.append(None)
            continue
        if isinstance(node, BVConst):
            tokens.append(("c", node.value, node.width))
            continue
        if isinstance(node, BoolConst):
            tokens.append(("b", node.value))
            continue
        tokens.append(
            (
                type(node).__name__,
                getattr(node, "op", None),
                getattr(node, "low", None),
                getattr(node, "signed", None),
            )
        )
        children = node.children()
        # Reversed so the stream stays in left-to-right pre-order.
        stack.extend(reversed(children))
    return tuple(tokens), tuple(slots)


def _fill(template: Tuple[tuple, tuple], canon: _Canon, out: List) -> None:
    """Append ``template``'s tokens with every variable slot renamed.

    Slots are renamed in pre-order, the order in which a walk of the
    expression meets its variables, so the tokens equal the walk's."""
    tokens, slots = template
    base = len(out)
    out.extend(tokens)
    rename = canon.rename
    for pos, name, width in slots:
        out[base + pos] = ("v", rename(name), width)


class _MemoryTemplate:
    """One memory tuple's part of a serialization.

    Memory is serialized first, under an empty rename table, so its
    renamed tokens, the renaming they leave and the live variables they
    hold depend on the tuple alone.  So does the constraint segment of a
    state with no pending reception, which is cached here per path
    condition."""

    __slots__ = ("memory", "tokens", "canon", "live", "segments")

    def __init__(self, memory: Sequence, tokens: tuple, canon: _Canon, live) -> None:
        self.memory = memory
        self.tokens = tokens
        self.canon = canon
        self.live = live
        #: id(path condition) -> (path condition, constraint segment)
        self.segments: Dict[int, tuple] = {}


class _Templates:
    """One reducer's token templates, built once per shared object.

    States share their parts by reference: expressions are interned,
    idle memory is an immutable tuple, and constraint groups come
    memoized from :meth:`ConstraintSet.partition_groups`.  Each part is
    walked once; every later serialization copies its template and
    renames the variable slots.  Entries are keyed by ``id`` and hold
    their key, so the id cannot be reused while the entry lives, and
    are never hashed structurally.  The table lives and dies with its
    reducer and is never pickled: a restored reducer starts empty.
    """

    # Weak-referenceable, so tests can watch a dropped engine free it.
    __slots__ = ("exprs", "memories", "groups", "__weakref__")

    def __init__(self) -> None:
        #: id(root) -> (root, (tokens, slots))
        self.exprs: Dict[int, tuple] = {}
        #: id(memory) -> _MemoryTemplate
        self.memories: Dict[int, _MemoryTemplate] = {}
        #: id(conjuncts) -> (conjuncts, (tokens, slots))
        self.groups: Dict[int, tuple] = {}

    def expr(self, root) -> Tuple[tuple, tuple]:
        entry = self.exprs.get(id(root))
        if entry is None or entry[0] is not root:
            entry = (root, _expr_template(root))
            self.exprs[id(root)] = entry
        return entry[1]

    def memory(self, memory: Sequence) -> _MemoryTemplate:
        """The template of ``memory``; only an immutable tuple is kept, a
        running state's list is serialized afresh."""
        entry = self.memories.get(id(memory))
        if entry is not None and entry.memory is memory:
            return entry
        canon = _Canon()
        out: List = ["mem"]
        live: Set = set()
        _serialize_cells(memory, self, canon, out, live)
        entry = _MemoryTemplate(memory, tuple(out), canon, frozenset(live))
        if type(memory) is tuple:
            self.memories[id(memory)] = entry
        return entry

    def group(self, conjuncts: Tuple) -> Tuple[tuple, tuple]:
        """The concatenated templates of one group's conjuncts."""
        entry = self.groups.get(id(conjuncts))
        if entry is None or entry[0] is not conjuncts:
            tokens: List = []
            slots: List = []
            for conjunct in conjuncts:
                sub_tokens, sub_slots = self.expr(conjunct)
                base = len(tokens)
                tokens.extend(sub_tokens)
                slots.extend(
                    (base + pos, name, width) for pos, name, width in sub_slots
                )
            entry = (conjuncts, (tuple(tokens), tuple(slots)))
            self.groups[id(conjuncts)] = entry
        return entry[1]


def _serialize_cells(
    cells: Sequence,
    templates: _Templates,
    canon: _Canon,
    out: List,
    live: Optional[Set],
) -> None:
    """Append memory or payload cells; ``live`` collects their variables."""
    for cell in cells:
        if isinstance(cell, int):
            out.append(cell)
        else:
            out.append("<expr>")
            _fill(templates.expr(cell), canon, out)
            if live is not None:
                live.update(cell.variables())


def _serialize_packet(
    packet: Packet,
    templates: _Templates,
    canon: _Canon,
    out: List,
    slots: List[int],
    live: Optional[Set],
) -> None:
    slots.append(len(out))
    out.append(("pkt", packet.src))
    _serialize_cells(packet.payload, templates, canon, out, live)


def _constraint_segment(
    constraints, live, canon: _Canon, templates: _Templates
) -> tuple:
    """The live-projected constraint groups, renamed and sorted."""
    groups = []
    for conjuncts, variables in constraints.partition_groups():
        if live and not variables.isdisjoint(live):
            group_out: List = []
            # Each group renames from a copy of the state's table: a
            # name first met in one group takes the same index in all.
            _fill(templates.group(conjuncts), _Canon(canon), group_out)
            groups.append(tuple(group_out))
    # Groups are variable-disjoint components; sorting their serialized
    # forms makes the ordering canonical without a global var order.
    return tuple(sorted(groups))


def _serialize_state(
    state: ExecutionState, templates: _Templates, slots: List[int]
) -> Tuple[List, _Canon]:
    """One flat, hashable-token serialization of an idle state's
    configuration, with node ids as they are, and the renaming it leaves
    (shared with the template table: copy it before renaming more).

    Includes: node, status, guest memory, pending events in deterministic
    order (timer liveness instead of absolute generations), and the
    live-projected canonical constraint groups: those sharing a variable
    with guest memory or a pending packet payload, the variables an idle
    state can still observe.  Excludes: sid, pc/stacks (empty between
    events), clock (event times are absolute), communication history and
    symbolic counters (future names are alpha-erased anyway).

    The only node ids in the stream are the ``("node", n)`` token at
    index 0 and the ``("pkt", src)`` token of every pending packet; their
    positions are appended to ``slots`` so a node relabelling can be
    applied afterwards (see :func:`_canonical_form`).
    """
    slots.append(0)
    memory = templates.memory(state.memory)
    canon = memory.canon
    live = memory.live
    out: List = [("node", state.node), ("status", state.status)]
    out.extend(memory.tokens)
    out.append("events")
    received = False
    for event in state.events:
        if event.kind == Event.RECV:
            if not received:
                received = True
                canon = _Canon(canon)
                live = set(live)
            out.append(("recv", event.time))
            _serialize_packet(event.data, templates, canon, out, slots, live)
        elif event.kind == Event.TIMER:
            alive = event.generation == state.timer_generations.get(event.data, 0)
            out.append(("timer", event.time, event.data, alive))
        else:
            out.append((event.kind, event.time))
    out.append("constraints")
    constraints = state.constraints
    if received:
        out.extend(_constraint_segment(constraints, live, canon, templates))
        return out, canon
    entry = memory.segments.get(id(constraints))
    if entry is None or entry[0] is not constraints:
        segment = _constraint_segment(constraints, live, canon, templates)
        entry = (constraints, segment)
        memory.segments[id(constraints)] = entry
    out.extend(entry[1])
    return out, canon


def _canonical_form(
    state: ExecutionState,
    perms: Optional[Sequence[Tuple[int, ...]]],
    templates: _Templates,
    packet: Optional[Packet] = None,
) -> Optional[tuple]:
    """The minimal serialization of ``state`` (then ``packet``, if given)
    over the node relabellings ``perms``, in one serialization walk.

    ``perms=None`` keeps node ids as they are.  A relabelling changes
    only the node and packet-source slots: alpha-renaming follows the
    order of first appearance, which no relabelling moves, and memory,
    timers and constraint groups hold no node ids.  So all candidate
    streams agree outside the slots, and the lexicographically least one
    is the walk with its slots patched by the permutation whose images
    of the slot ids, in slot order, are least.
    """
    if len(state.constraints) > MAX_FINGERPRINT_CONJUNCTS:
        return None
    slots: List[int] = []
    tokens, canon = _serialize_state(state, templates, slots)
    if packet is not None:
        _serialize_packet(packet, templates, _Canon(canon), tokens, slots, None)
    if perms is not None:
        ids = [tokens[pos][1] for pos in slots]
        best = min(perms, key=itemgetter(*ids))
        for pos, node in zip(slots, ids):
            tokens[pos] = (tokens[pos][0], best[node])
    return tuple(tokens)


def state_fingerprint(
    state: ExecutionState, perm: Optional[Tuple[int, ...]] = None
) -> Optional[tuple]:
    """The alpha-renamed configuration fingerprint of one idle state."""
    return _canonical_form(state, None if perm is None else (perm,), _Templates())


def canonical_state_form(
    state: ExecutionState, autos: Sequence[Tuple[int, ...]]
) -> Optional[tuple]:
    """The minimal fingerprint over the given permutations."""
    return _canonical_form(state, autos, _Templates())


def permute_state(state: ExecutionState, perm: Tuple[int, ...]) -> ExecutionState:
    """A relabelled copy of ``state`` under node permutation ``perm``.

    Test/diagnostic helper for the canonicalization property
    ``canonical(permute(s)) == canonical(s)``: the node id and packet
    sources are relabelled; symbolic names need no rewrite because the
    fingerprint alpha-renames them away.
    """
    twin = state.fork()
    twin.node = perm[state.node]
    relabelled: List[Event] = []
    for event in twin.events:
        if event.kind == Event.RECV:
            packet = event.data
            moved = Packet(
                perm[packet.src],
                perm[packet.dest],
                packet.payload,
                packet.sent_at,
                packet.broadcast_id,
            )
            relabelled.append(
                Event(event.time, event.seq, event.kind, moved, event.generation)
            )
        else:
            relabelled.append(event)
    twin.events = tuple(relabelled)
    return twin


# ---------------------------------------------------------------------------
# Reported-verdict canonicalization
# ---------------------------------------------------------------------------


def canonical_violations(
    states_or_report, topology: Topology
) -> frozenset:
    """The set of reported violations up to symmetry and alpha-renaming.

    Accepts a :class:`~repro.core.engine.RunReport` (or anything with an
    ``error_states`` attribute) or an iterable of states.  Each error
    state contributes one signature: the guest error (kind, message,
    line, code) plus the orbit of the node that reported it.  This is the
    *violation class* — the granularity at which the engine reports bugs
    (``report_to_dict``'s ``errors`` rows) — deliberately coarser than a
    full state canonicalization: a pruned path's violations surface on a
    symmetric representative whose global clock and peer context may
    differ, but never its violation class.  Reduction on vs. off must
    agree on this set — that is the equivalence gate in
    ``test_optimizer_equivalence.py``.
    """
    states = getattr(states_or_report, "error_states", states_or_report)
    autos = automorphisms(topology)
    signatures = set()
    for state in states:
        if state.status != Status.ERROR or state.error is None:
            continue
        error = state.error
        signatures.add(
            (
                error.kind,
                error.message,
                error.line,
                error.code,
                node_orbit(state.node, autos),
            )
        )
    return frozenset(signatures)


# ---------------------------------------------------------------------------
# Conservative receive-handler analysis (the POR independence guard)
# ---------------------------------------------------------------------------

#: Read-modify-write opcodes whose composition commutes
#: (``x <op> a <op> b == x <op> b <op> a``).
_COMMUTING_RMW = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.BAND, Op.BOR, Op.BXOR}
)

#: Syscalls with no effect outside the current state's own configuration.
#: ``timer_set``/``*_send`` mutate globally visible behaviour; ``poke``
#: writes arbitrary memory; all are rejected.
_PURE_SYSCALLS = frozenset(
    {
        "node_id",
        "node_count",
        "time",
        "symbolic",
        "assume",
        "assert",
        "fail",
        "recv_len",
        "recv_src",
        "recv_byte",
        "lshr",
        "min",
        "max",
        "abs",
        "log",
        "peek",
    }
)


def analyze_recv_handler(program: CompiledProgram) -> Tuple[bool, str]:
    """Certify that exchanging two independent deliveries commutes.

    A linear, conservative scan of the ``on_recv`` bytecode.  Accepts the
    handler iff every write to a *global* cell is a commutative
    read-modify-write (``LOAD g; PUSH imm; <commuting op>; STORE g``),
    every local read is preceded by an unconditional local write (no
    state smuggled between invocations through stale frame slots), and
    only pure syscalls occur.  Anything unclear — calls, indexed writes,
    sends, timers — rejects.  Returns ``(ok, reason)``.
    """
    if not program.has_handler(HANDLER_RECV):
        return True, "no receive handler"
    index = program.function_index[HANDLER_RECV]
    func = program.functions[index]
    code = program.code[func.entry : func.entry + func.code_length]
    global_cells = set()
    for address, size in program.globals_layout.values():
        global_cells.update(range(address, address + size))
    frame = range(func.param_base, func.param_base + func.frame_size)
    written = set(range(func.param_base, func.param_base + len(func.params)))
    branched = False
    for offset, instr in enumerate(code):
        op = instr.op
        if op in (Op.JMP, Op.JZ, Op.JNZ):
            branched = True
        elif op == Op.LOAD:
            if instr.arg in frame and instr.arg not in written:
                return False, f"reads frame cell {instr.arg} before writing it"
        elif op == Op.STORE:
            if instr.arg in global_cells:
                if not _is_commuting_rmw(code, offset, instr.arg):
                    return False, (
                        f"non-commutative write to global cell {instr.arg}"
                    )
            elif not branched:
                written.add(instr.arg)
        elif op == Op.STOREI:
            return False, "indexed store"
        elif op == Op.LOADI:
            base, size = instr.arg
            if any(cell in frame for cell in range(base, base + size)):
                return False, "indexed read of a frame array"
        elif op == Op.CALL:
            return False, "calls a function"
        elif op == Op.SYS:
            name = instr.arg[0]
            if name not in _PURE_SYSCALLS:
                return False, f"impure syscall {name}"
    return True, "commutes"


def _is_commuting_rmw(code, offset: int, address: int) -> bool:
    if offset < 3:
        return False
    load, push, arith = code[offset - 3], code[offset - 2], code[offset - 1]
    return (
        load.op == Op.LOAD
        and load.arg == address
        and push.op == Op.PUSH
        and arith.op in _COMMUTING_RMW
    )


def delivery_independent(a: Packet, b: Packet) -> bool:
    """Paper-style independence of two deliveries to the same node: they
    arrive on disjoint channels (different senders) and their payloads
    share no symbolic variables, so — given a commuting handler — their
    exchange cannot change the reachable configuration."""
    if a.src == b.src:
        return False
    vars_a: Set = set()
    for cell in a.payload:
        if not isinstance(cell, int):
            vars_a.update(cell.variables())
    if not vars_a:
        return True
    for cell in b.payload:
        if not isinstance(cell, int) and not vars_a.isdisjoint(cell.variables()):
            return False
    return True


# ---------------------------------------------------------------------------
# The reducer
# ---------------------------------------------------------------------------


class StateReducer:
    """Seen-set of canonical forms + sleep/wake policy for one engine run.

    Built by the engine when ``EngineConfig.symmetry`` or ``.por`` is
    set.  ``symmetry`` gates pruning of post-dispatch duplicates (local
    branches, failure twins, dscenario copies); ``por`` gates sleeping of
    mapper-created non-receiving twins.  Both share one seen-set, so
    either flag alone still records coverage from all states it observes.
    """

    def __init__(
        self,
        topology: Topology,
        program: CompiledProgram,
        *,
        symmetry: bool = True,
        por: bool = True,
        trace=None,
        medium=None,
        metrics=None,
    ) -> None:
        self.symmetry = symmetry
        self.por = por
        self.trace = trace
        self.autos = automorphisms(topology)
        self._stabilizers = {
            node: tuple(p for p in self.autos if p[node] == node)
            for node in topology.nodes()
        }
        ok, reason = analyze_recv_handler(program)
        if ok and medium is not None and not medium.node_symmetric():
            # Canonical fingerprints equate states up to node relabelling
            # (and exclude communication history), but a medium with
            # per-link loss/jitter draws or finite-bandwidth queues keys
            # delivery on concrete link ids and history position — the
            # equivalence no longer implies equal futures, so reduction
            # must stand down rather than prune unsoundly.
            ok = False
            reason = (
                f"medium {medium.name!r} is not node-symmetric"
                " (per-link loss/jitter/queueing breaks automorphism"
                " invariance)"
            )
        #: reduction only activates on programs the conservative handler
        #: analysis certifies; see docs/REDUCTION.md ("assumptions").
        self.enabled = ok
        self.disable_reason = None if ok else reason
        self.seen: Dict[tuple, int] = {}
        self.delivery_seen: Set[tuple] = set()
        self._templates = _Templates()
        # Flow counters (``reduce.*`` metrics), adopted by ``metrics``.
        #: canonical fingerprints computed
        self.fingerprints = Counter("reduce.fingerprints")
        #: states parked by the symmetry seen-set
        self.pruned = Counter("reduce.pruned")
        #: mapper twins put to sleep (commuting interleavings)
        self.slept_twins = Counter("reduce.slept_twins")
        #: events swallowed on parked states
        self.slept_events = Counter("reduce.slept_events")
        #: parked states re-activated by an uncovered delivery
        self.woken = Counter("reduce.woken")
        #: 1 if the program analysis vetoed reduction
        self.disabled = Counter("reduce.disabled", 0 if ok else 1)
        #: size of the seen-set (canonical orbits covered)
        self.orbits = Counter("reduce.orbits")
        self.handles = (
            self.fingerprints,
            self.pruned,
            self.slept_twins,
            self.slept_events,
            self.woken,
            self.disabled,
            self.orbits,
        )
        if metrics is not None:
            metrics.adopt(self)
        self.seeded = False
        if not ok:
            if trace is not None:
                trace.emit("reduce.disabled", reason=reason)

    # -- fingerprinting -----------------------------------------------------

    def _fingerprint(
        self, state: ExecutionState, packet: Optional[Packet] = None
    ) -> Optional[tuple]:
        fingerprint = _canonical_form(
            state, self._stabilizers[state.node], self._templates, packet
        )
        if fingerprint is not None:
            self.fingerprints.value += 1
        return fingerprint

    # -- seeding (resume / restored worker partitions) ----------------------

    def seed(self, states: Iterable[ExecutionState]) -> None:
        """Record pre-existing states as covered without pruning any.

        Called once at loop entry so resumed checkpoints and restored
        worker partitions never park inherited work."""
        self.seeded = True
        if not self.enabled:
            return
        for state in states:
            if state.status in (Status.IDLE, Status.PRUNED):
                fingerprint = self._fingerprint(state)
                if fingerprint is not None:
                    self.seen.setdefault(fingerprint, state.sid)
        self.orbits.value = len(self.seen)

    # -- the symmetry prune (post-dispatch candidates) -----------------------

    def observe(self, state: ExecutionState) -> bool:
        """Record a state's canonical form; ``True`` means park it now."""
        if not self.enabled or state.status != Status.IDLE:
            return False
        fingerprint = self._fingerprint(state)
        if fingerprint is None:
            return False
        holder = self.seen.setdefault(fingerprint, state.sid)
        self.orbits.value = len(self.seen)
        if holder != state.sid and self.symmetry:
            self.pruned.value += 1
            return True
        return False

    # -- the POR twin sleep (commuting interleavings) ------------------------

    def observe_twin(self, twin: ExecutionState, packet: Packet) -> bool:
        """``True`` iff a mapper-created non-receiving twin may sleep.

        Requires ``por``, a certified handler, independence of the
        triggering delivery from everything pending on the twin, and a
        covered canonical form."""
        if not self.enabled or twin.status != Status.IDLE:
            return False
        if not self.por:
            return self.observe(twin) if self.symmetry else False
        for event in twin.events:
            if event.kind == Event.RECV and not delivery_independent(
                packet, event.data
            ):
                return False
        fingerprint = self._fingerprint(twin)
        if fingerprint is None:
            return False
        holder = self.seen.setdefault(fingerprint, twin.sid)
        self.orbits.value = len(self.seen)
        if holder != twin.sid:
            self.slept_twins.value += 1
            return True
        return False

    # -- wake-on-uncovered-delivery ------------------------------------------

    def record_delivery(self, state: ExecutionState, packet: Packet) -> None:
        """Mark (configuration ⊕ delivery) as covered by an active state."""
        if not self.enabled:
            return
        key = self._delivery_key(state, packet)
        if key is not None:
            self.delivery_seen.add(key)

    def on_pruned_event(self, state: ExecutionState, event: Event) -> str:
        """Policy for an event surfacing on a parked state.

        Self-generated events (boot/timer) are always swallowed — the
        covering representative held the identical pending queue.  A
        reception is swallowed only if its (configuration ⊕ delivery)
        class was already dispatched on an active state; otherwise the
        state wakes and explores it (``"wake"``)."""
        if event.kind == Event.RECV and self.enabled:
            key = self._delivery_key(state, event.data)
            if key is not None and key not in self.delivery_seen:
                self.delivery_seen.add(key)
                self.woken.value += 1
                return "wake"
        self.slept_events.value += 1
        return "sleep"

    def _delivery_key(
        self, state: ExecutionState, packet: Packet
    ) -> Optional[tuple]:
        return self._fingerprint(state, packet)
