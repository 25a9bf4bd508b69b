"""The client-visible tree: instances, deterministic dumps, and validation.

``LookupTree`` is what a replica shows its client.
``graph.ReplicatedTree.lookup`` makes one per payload state, keyed on the
versions of its set CRDTs, and hands it to every caller until a set
changes.  It has one path: read the payload, patch the tree it showed
last when a basis for that is kept, else build from scratch.  A patch
goes through ``edited``, which holds the one patch rule: a change may
only add leaves or drop whole subtrees.  Unpositioned graph and edge
trees patch, and so do unpositioned word trees under skip and reappear.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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

    Each instance is also kept in its parent's list of children.  A lookup
    build hands back every list in display order, so ``children`` and
    ``dump`` read it as it is: a builder that adds a sibling group in
    another order puts it in order once, with ``sort_siblings`` or, for
    sequence positions, its codec's ``finish``.  Once a build is done the
    tree is read-only.  A tree built by hand shows its siblings in the
    order they were added.

    A patched tree is made with ``edited`` from the tree of an earlier
    payload state, when the change only drops whole subtrees hung from
    live nodes and adds instances below live ones (its rule).  It shares
    the instances it keeps with that tree, so neither may be changed once
    a build or a patch hands it out.

    ``blocks`` holds the dump text of each subtree hung from the root, by
    the key of its top instance, filled as ``dump`` renders it.  ``edited``
    carries over the blocks that still hold; ``add_instance`` and
    ``sort_siblings`` clear them.
    """

    root_label: str = "root"
    instances: Dict[InstanceKey, Instance] = field(default_factory=dict)
    kids: Dict[InstanceKey, List[Instance]] = field(default_factory=dict, repr=False)
    blocks: Dict[InstanceKey, str] = field(default_factory=dict, compare=False, repr=False)

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
        self.blocks.clear()

    def sort_siblings(self) -> None:
        """Put every sibling group in ``Instance.order_key`` order."""
        self.blocks.clear()
        for group in self.kids.values():
            if len(group) > 1:
                group.sort(key=Instance.order_key)

    def edited(
        self,
        removed: Iterable[InstanceKey],
        added: List[Instance],
        is_live: Callable[[Any], bool],
    ) -> Optional["LookupTree"]:
        """This tree without the removed instances and with the added ones,
        or None when the patch rule does not hold; this tree is left as it
        is.  Every removed instance must be shown, with all its children
        removed too, and hang from the root, another removed instance or an
        instance whose node ``is_live``.  No added instance may be shown
        already, and each must hang from the root, an earlier added one or
        a kept instance whose node ``is_live``.  So no instance is left
        below a removed one, and no node shown only to hold its descendants
        (a ghost, or a dead node a policy revives) loses or gains one.

        Each added instance takes its place in its sibling group by
        ``Instance.order_key``, so this tree must show its siblings in that
        order, as ``sort_siblings`` puts them.  It joins the end of the
        instance order, which no reader relies on.

        A kept subtree keeps its depth, labels and sibling order, so the new
        tree takes every dump block of this one except those of the
        subtrees that lose or gain an instance.
        """
        shown = self.instances
        instances = dict(shown)
        kids = dict(self.kids)
        groups: Dict[InstanceKey, List[Instance]] = {}
        removed = set(removed)
        for key in removed:
            gone = instances.pop(key, None)
            if gone is None or any(kid.key not in removed for kid in kids.pop(key, ())):
                return None
            parent = gone.parent
            if parent not in removed:
                if parent and not is_live(instances[parent].node):
                    return None
                group = groups[parent] if parent in groups else kids[parent]
                groups[parent] = [inst for inst in group if inst is not gone]
        for inst in added:
            key, parent = inst.key, inst.parent
            if key in shown or key in instances:
                return None
            # a parent in instances is kept when shown, else added earlier
            if parent and (
                parent not in instances
                or parent in shown and not is_live(instances[parent].node)
            ):
                return None
            instances[key] = inst
            group = groups.get(parent)
            if group is None:
                group = groups[parent] = list(kids.get(parent, ()))
            insort(group, inst, key=Instance.order_key)
        for parent, group in groups.items():
            if group:
                kids[parent] = group
            else:
                del kids[parent]
        blocks = dict(self.blocks)
        if blocks:
            # walk up from each touched instance to the root, or to the first
            # instance an earlier walk reached
            tops: Dict[InstanceKey, InstanceKey] = {(): ()}
            touched = [(key, shown) for key in removed]
            touched += [(inst.key, instances) for inst in added]
            for key, chain in touched:
                walk = []
                while key not in tops:
                    walk.append(key)
                    key = chain[key].parent
                top = tops[key] or walk[-1]
                tops.update(dict.fromkeys(walk, top))
                blocks.pop(top, None)
        return LookupTree(self.root_label, instances, kids, blocks)

    def children(self, key: InstanceKey) -> List[Instance]:
        return list(self.kids.get(key, ()))

    def nodes_present(self) -> set:
        return {inst.node for inst in self.instances.values()}

    def instances_of(self, node: Any) -> List[Instance]:
        return [inst for inst in self.instances.values() if inst.node == node]

    def validate(self) -> None:
        """Check the parent map is total, acyclic, and root-connected.

        Each walk up from an instance stops at the first instance an
        earlier walk proved root-connected, so every instance is read once.
        A walk longer than the instance count has gone round a cycle.
        """
        instances = self.instances
        for key, inst in instances.items():
            if inst.parent != () and inst.parent not in instances:
                raise AssertionError(f"instance {key!r} has missing parent")
        rooted = {()}
        for key in instances:
            walk = []
            cur = key
            while cur not in rooted:
                if len(walk) == len(instances):
                    raise AssertionError(f"cycle through instance {key!r}")
                walk.append(cur)
                cur = instances[cur].parent
            rooted.update(walk)

    def dump(self) -> str:
        blocks = self.blocks
        parts = [self.root_label]
        for top in self.kids.get((), ()):
            block = blocks.get(top.key)
            if block is None:
                block = blocks[top.key] = self._block(top)
            parts.append(block)
        return "\n".join(parts)

    def _block(self, top: Instance) -> str:
        """The dump lines of the subtree of ``top``, a child of the root."""
        kids = self.kids
        lines = []
        # depth-first with an explicit stack, so siblings are pushed last-first
        stack = [(top, 1)]
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
                stack.extend((kid, depth + 1) for kid in reversed(group))
        return "\n".join(lines)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, LookupTree):
            return NotImplemented
        return self.dump() == other.dump()
