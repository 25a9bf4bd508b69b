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
    """A rooted tree of node instances with a canonical textual dump.

    Each instance is also kept in its parent's list of children, in the
    order it was added.  Once a build has added its instances, the tree is
    read-only but for the codec's ``finish``, which may set an instance's
    ``label`` and ``pos`` but never its ``parent``, so the lists stay valid.
    """

    root_label: str = "root"
    instances: Dict[InstanceKey, Instance] = field(default_factory=dict)
    kids: Dict[InstanceKey, List[Instance]] = field(default_factory=dict, repr=False)

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
        inst = self.instances[key] = Instance(
            key=key,
            node=node,
            parent=parent,
            label=label if label is not None else render(node),
            ghost=ghost,
            pos=pos,
        )
        self.kids.setdefault(parent, []).append(inst)

    def children(self, key: InstanceKey) -> List[Instance]:
        return sorted(self.kids.get(key, ()), key=Instance.order_key)

    def children_by_parent(self) -> Dict[InstanceKey, List[Instance]]:
        """Every instance grouped under its parent key, unsorted; read-only."""
        return self.kids

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
        kids = self.kids

        def last_first(group: List[Instance]) -> List[Instance]:
            if len(group) < 2:
                return group
            return sorted(group, key=Instance.order_key)[::-1]

        lines = [self.root_label]
        # depth-first with an explicit stack, so siblings are pushed last-first
        stack = [(inst, 1) for inst in last_first(kids.get((), []))]
        while stack:
            inst, depth = stack.pop()
            label = inst.label
            if inst.pos is not None:
                label += f" @{render(inst.pos)}"
            if inst.ghost:
                label += " ~"
            lines.append("  " * depth + label)
            group = kids.get(inst.key)
            if group:
                stack.extend((kid, depth + 1) for kid in last_first(group))
        return "\n".join(lines)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, LookupTree):
            return NotImplemented
        return self.dump() == other.dump()
