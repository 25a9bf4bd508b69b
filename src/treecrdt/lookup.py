"""The client-visible tree: instances, deterministic dumps, and validation.

``LookupTree`` is what a replica shows its client.  ``graph.ReplicatedTree``
builds one per payload state, keyed on the versions of its set CRDTs, and
hands it to every caller until a set changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .render import render, sort_key

InstanceKey = Tuple  # () is the root; other keys are tuples identifying instances


@dataclass(slots=True)
class Instance:
    key: InstanceKey
    node: Any
    parent: InstanceKey
    label: str
    ghost: bool = False
    pos: Any = None

    def order_key(self):
        if self.pos is not None:
            return (0, sort_key(self.pos), sort_key(self.key))
        return (1, sort_key(self.node), sort_key(self.key))


@dataclass
class LookupTree:
    """A rooted tree of node instances with a canonical textual dump."""

    root_label: str = "root"
    instances: Dict[InstanceKey, Instance] = field(default_factory=dict)

    def add_instance(
        self,
        key: InstanceKey,
        node: Any,
        parent: InstanceKey,
        label: Optional[str] = None,
        ghost: bool = False,
        pos: Any = None,
    ) -> None:
        if key == () or key in self.instances:
            raise ValueError(f"duplicate or reserved instance key {key!r}")
        self.instances[key] = Instance(
            key=key,
            node=node,
            parent=parent,
            label=label if label is not None else render(node),
            ghost=ghost,
            pos=pos,
        )

    def children(self, key: InstanceKey) -> List[Instance]:
        kids = [inst for inst in self.instances.values() if inst.parent == key]
        return sorted(kids, key=Instance.order_key)

    def children_by_parent(self) -> Dict[InstanceKey, List[Instance]]:
        """Every instance grouped under its parent key, in one pass, unsorted."""
        kids: Dict[InstanceKey, List[Instance]] = {}
        for inst in self.instances.values():
            kids.setdefault(inst.parent, []).append(inst)
        return kids

    def nodes_present(self) -> set:
        return {inst.node for inst in self.instances.values()}

    def instances_of(self, node: Any) -> List[Instance]:
        return [inst for inst in self.instances.values() if inst.node == node]

    def validate(self) -> None:
        """Check the parent map is total, acyclic, and root-connected."""
        for key, inst in self.instances.items():
            if inst.parent != () and inst.parent not in self.instances:
                raise AssertionError(f"instance {key!r} has missing parent")
        for key in self.instances:
            seen = set()
            cur = key
            while cur != ():
                if cur in seen:
                    raise AssertionError(f"cycle through instance {key!r}")
                seen.add(cur)
                cur = self.instances[cur].parent

    def dump(self) -> str:
        kids = self.children_by_parent()

        def last_first(key: InstanceKey) -> List[Instance]:
            return sorted(kids.get(key, ()), key=Instance.order_key)[::-1]

        lines = [self.root_label]
        # depth-first with an explicit stack, so siblings are pushed last-first
        stack = [(inst, 1) for inst in last_first(())]
        while stack:
            inst, depth = stack.pop()
            label = inst.label
            if inst.pos is not None:
                label += f" @{render(inst.pos)}"
            if inst.ghost:
                label += " ~"
            lines.append("  " * depth + label)
            stack.extend((kid, depth + 1) for kid in last_first(inst.key))
        return "\n".join(lines)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, LookupTree):
            return NotImplemented
        return self.dump() == other.dump()
