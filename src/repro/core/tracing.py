"""ASCII rendering of SDE structures, in the spirit of the paper's figures.

Figures 3-8 of the paper draw dscenarios/dstates as boxes of per-node state
rows; these helpers produce the same pictures as text, which the examples
print and which make engine-state dumps actually readable when debugging a
mapping algorithm.

Example output for a 3-node COW run after a conflicted transmission::

    dstate #1              dstate #2
    node 0 | s3            node 0 | s7*
    node 1 | s4 s5         node 1 | s2
    node 2 | s6            node 2 | s8*

(* marks states created by the mapping phase, as in Figure 4's gray block.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..vm.state import ExecutionState, Status
from .mapping import StateMapper
from .sds import SDSMapper

__all__ = ["render_groups", "render_state", "render_virtual_structure"]

_STATUS_MARK = {
    Status.ERROR: "!",
    Status.INFEASIBLE: "~",
    Status.TERMINATED: ".",
}


def _label(state: ExecutionState, mapped_born: bool = False) -> str:
    mark = _STATUS_MARK.get(state.status, "")
    star = "*" if mapped_born else ""
    return f"s{state.sid}{mark}{star}"


def render_groups(
    mapper: StateMapper,
    max_groups: int = 8,
    mapped_sids: Optional[Iterable[int]] = None,
) -> str:
    """Draw each dscenario/dstate as a node->states box, side by side."""
    mapped = set(mapped_sids or ())
    boxes: List[List[str]] = []
    groups = list(mapper.groups())
    shown = groups[:max_groups]
    for index, group in enumerate(shown):
        lines = [f"{'dscenario' if mapper.name == 'cob' else 'dstate'} #{index + 1}"]
        for node in sorted(group):
            row = " ".join(_label(state, state.sid in mapped) for state in group[node])
            lines.append(f"node {node} | {row}")
        boxes.append(lines)
    if len(groups) > max_groups:
        boxes.append([f"... {len(groups) - max_groups} more"])

    height = max((len(box) for box in boxes), default=0)
    widths = [max(len(line) for line in box) for box in boxes]
    out_lines = []
    for row_index in range(height):
        cells = []
        for box, width in zip(boxes, widths):
            text = box[row_index] if row_index < len(box) else ""
            cells.append(text.ljust(width))
        out_lines.append("   ".join(cells).rstrip())
    return "\n".join(out_lines)


def render_virtual_structure(mapper: SDSMapper, max_groups: int = 8) -> str:
    """SDS-specific view: each dstate's member lists, labelled so that the
    sharing of Figure 8 shows.  ``L<k>`` names a member list; a list held
    by several dstates appears under the same label in each, and ``~``
    marks the states of such a list (in superposition)."""
    lines: List[str] = []
    labels: Dict[int, int] = {}
    for index, dstate in enumerate(mapper.dstates()[:max_groups]):
        lines.append(f"dstate #{index + 1}")
        for node in sorted(dstate.members):
            members = dstate.members[node]
            label = labels.setdefault(id(members), len(labels) + 1)
            shared = "~" if len(members.dstates) > 1 else ""
            states = " ".join(f"s{virtual.actual.sid}{shared}" for virtual in members)
            lines.append(f"  node {node} | L{label}: {states}")
    total = len(mapper.dstates())
    if total > max_groups:
        lines.append(f"... {total - max_groups} more dstates")
    lines.append(
        "(L<k> is one member list, shared by every dstate that shows it;"
        " ~ marks states in superposition)"
    )
    return "\n".join(lines)


def render_state(
    state: ExecutionState,
    globals_layout: Optional[Mapping[str, tuple]] = None,
) -> str:
    """One-state dump: identity, clock, constraints, history, key globals."""
    from ..expr import pretty

    lines = [
        f"state s{state.sid} (node {state.node}, {state.status},"
        f" t={state.clock}ms)"
    ]
    if state.error is not None:
        lines.append(f"  error : {state.error!r}")
    if state.constraints:
        lines.append("  path  : " + " && ".join(pretty(c) for c in state.constraints))
    if state.history:
        rendered = ", ".join(
            f"{kind}#{pid}{'->' if kind == 'tx' else '<-'}n{peer}"
            for kind, pid, peer in state.history
        )
        lines.append(f"  comms : {rendered}")
    if state.events:
        pending = ", ".join(
            f"{event.kind}@{event.time}ms" for event in state.events[:6]
        )
        lines.append(f"  queue : {pending}")
    if globals_layout:
        cells = []
        for name, (address, size) in sorted(globals_layout.items()):
            if size == 1:
                cells.append(f"{name}={state.memory[address]}")
        if cells:
            lines.append("  mem   : " + " ".join(cells[:10]))
    return "\n".join(lines)
