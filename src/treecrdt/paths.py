"""The word engine: tree CRDTs stored as one replicated set of root paths.

A node's identity is its full path from the root, so the same atom may
label children of different parents.  ``WordTree`` is a
``graph.ReplicatedTree`` whose one payload part is the path set; the codec
of its positioning mode, from the one ``CODECS`` table in ``edges``,
decides what one path step is.  The visible tree is the live path set
repaired into a prefix-closed set by a connection policy; under skip and
reappear a change that only adds leaves or drops whole shown subtrees
patches the tree shown last, unless its steps are WOOTR triples.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .clocks import ReplicaClock
from .errors import IllegalCombo, PreconditionViolation
from .graph import ReplicatedTree, TreeOp
from .lookup import Instance, LookupTree
from .policies import CONNECT_POLICIES, MONOTONE_CONNECT
from .render import Path, render
from .sets import ADD, RMV, make_set

EPSILON = Path()


def as_path(p: Iterable) -> Path:
    """p itself when it already is a Path, so the keys cached on it are kept."""
    return p if type(p) is Path else Path(p)


def check_atom(atom: Any) -> None:
    if not isinstance(atom, str) or not atom or "/" in atom or atom != atom.strip():
        raise ValueError(f"atom must be a bare identifier, got {atom!r}")


def path_images(paths: Iterable[Path], policy: str) -> Dict[Path, Optional[Path]]:
    """Map each live path to where the policy shows it; None when dropped.

    Paths are resolved shortest first.  A path whose parent is live takes
    its parent's image plus its last atom, or no image when its parent has
    none.  A path whose parent is dead is an orphan: skip drops it,
    reappear keeps it in place, root hangs its last atom alone below the
    root, and compact hangs that atom below the image of the longest live
    prefix of its parent.
    """
    if policy not in CONNECT_POLICIES:
        raise IllegalCombo(f"unknown connection policy {policy!r}")
    live = {as_path(p) for p in paths} | {EPSILON}
    out: Dict[Path, Optional[Path]] = {EPSILON: EPSILON}
    # each dead prefix met under compact -> its longest live prefix
    anchors: Dict[tuple, tuple] = {}
    for p in sorted(live, key=len)[1:]:
        up = p[:-1]
        if up in out:
            img = out[up]
            # a relocated image is shorter than its path, so an image as
            # long as the parent is the parent itself
            if img is not None:
                img = p if len(img) == len(up) else Path(img + p[-1:])
        elif policy == "skip":
            img = None
        elif policy == "reappear":
            img = p
        elif policy == "root":
            img = Path(p[-1:])
        else:
            dead = []
            while up not in out and up not in anchors:
                dead.append(up)
                up = up[:-1]
            anchor = anchors.get(up, up)
            anchors.update(dict.fromkeys(dead, anchor))
            img = Path(out[anchor] + p[-1:])
        out[p] = img
    return out


class WordTree(ReplicatedTree):
    """Replicated tree over a single set CRDT of root paths.

    ``pi_mode`` picks the codec (``CODECS``) that makes a path step a
    bare atom, a ``PositionedNode``, or a ``WootrTriple``.  Its part of
    the one lookup path is reading the live paths (``_read``), building
    the tree from them (``_build``) and, under skip or reappear with bare
    atoms or UPI steps, patching the last tree (``_patch``).
    """

    SETS = ("paths",)
    repr_name = "word"

    def __init__(
        self,
        kind: str,
        flavor: str,
        connect_policy: str = "skip",
        pi_mode: Optional[str] = None,
    ):
        self.paths = make_set(kind, flavor)
        if pi_mode == "node":
            raise IllegalCombo("word trees take positions on steps, not nodes")
        super().__init__(kind, flavor, connect_policy, pi_mode)

    # --- lookup pipeline ---

    def live_paths(self) -> Set[Path]:
        return {as_path(p) for p in self.paths.lookup()}

    def live_positions(self, parent: Any) -> list:
        """Positions of the live paths one step below parent."""
        split = self.codec.split
        return [split(q[-1])[1] for q in self.live_paths() if q[:-1] == parent]

    def _read(self) -> Tuple[Set[Path]]:
        """The live paths."""
        return (self.live_paths(),)

    def _build(self, live: Set[Path]) -> Tuple[LookupTree, Any]:
        """The visible tree, one instance per shown path, and its basis.

        Under skip and reappear an instance's node is its own path, so with
        bare-atom steps the siblings come in display order.  Under root and
        compact its node is the first live path it shows, so that build
        sorts them, and the codec of a positioned tree sorts them by
        position.  Under reappear every live path is its own image, so that
        build needs no ``path_images``: it walks up from each live path to
        the first path already shown, and each path it passes is a ghost, a
        dead prefix shown only to hold its descendants.  Only a skip or
        reappear tree whose codec ``patches`` (bare-atom or UPI steps)
        patches, from a basis of the live paths and the proper prefixes of
        those it drops.
        """
        split = self.codec.split
        lt = LookupTree(root_label="/")
        if self.connect_policy == "reappear":
            shown = live - {EPSILON}
            ghosts = set()
            for p in live:
                q = p.parent()
                while q and q not in shown:
                    ghosts.add(q)
                    shown.add(q)
                    q = q.parent()
            for p in sorted(shown, key=Path.order_key):
                atom, pos = split(p[-1])
                lt.add_instance(p, p, Path(p[:-1]), label=render(atom), ghost=p in ghosts, pos=pos)
        else:
            images = path_images(live, self.connect_policy)
            # each instance remembers the first live path it shows, so moves
            # of a relocated subtree stay observable across lookups
            sources: Dict[Path, Path] = {}
            for src in sorted(images, key=Path.order_key):
                img = images[src]
                if img:
                    sources.setdefault(img, src)
            for img in sorted(sources, key=Path.order_key):
                atom, pos = split(img[-1])
                lt.add_instance(img, sources[img], Path(img[:-1]), label=render(atom), pos=pos)
            if self.pi_mode is None and self.connect_policy != "skip":
                lt.sort_siblings()
        self.codec.finish(lt)
        if not self.codec.patches or self.connect_policy not in MONOTONE_CONNECT:
            return lt, None
        blocked = {q[:k] for q in live if q not in lt.instances for k in range(1, len(q))}
        return lt, SimpleNamespace(live=live, blocked=blocked)

    def _patch(self, basis, live: Set[Path]) -> Optional[LookupTree]:
        """The last tree less the removed paths, plus the added ones, when
        no added path is a proper prefix of a live path the last tree
        dropped (the add would bring it back); ``edited`` checks the rest.
        An added path shows the label and position its codec gives a built
        one.

        Under skip and reappear each shown live path is shown as itself, so
        every other path keeps its instance, ghost mark included.  A patch
        keeps the set of dropped live paths as it was, so the index of
        their prefixes holds for the next patch too.
        """
        codec, old = self.codec, self._memo_tree
        added, removed = live - basis.live, basis.live - live
        if not basis.blocked.isdisjoint(added):
            return None
        new = []
        # parents first, so an added parent is placed before its children
        for p in sorted(added, key=Path.order_key):
            atom, pos = codec.split(p[-1])
            label, pos = codec.shown(p, render(atom), pos)
            new.append(Instance(p, p, p.parent(), label, pos=pos))
        basis.live = live
        return old.edited(removed, new, live.__contains__)

    # --- script names ---

    def resolve(self, text: str) -> Path:
        """The shown path "/a/b" names: from the root, at each atom the
        first child in sibling order with that label, ghosts included."""
        lt = self.lookup()
        key: Tuple = ()
        for atom in filter(None, text.split("/")):
            match = next((kid for kid in lt.children(key) if kid.label == atom), None)
            if match is None:
                raise PreconditionViolation(f"{text} is not in the tree")
            key = match.key
        return Path(key)

    def names(self) -> List[str]:
        """The script name of each shown path but the ghosts, the labels on
        its way from the root, in ``Path.order_key`` order."""
        lt = self.lookup()
        named, out = {EPSILON: ""}, []
        # a parent's key is shorter than its children's, so it comes first
        for key in sorted(lt.instances, key=Path.order_key):
            inst = lt.instances[key]
            named[key] = name = named[inst.parent] + "/" + inst.label
            if not inst.ghost:
                out.append(name)
        return out

    # --- generation ---

    def _admit(self, atom: str, parent: Any, pos: Any) -> None:
        check_atom(atom)
        p = Path(parent)
        lt = self.lookup()
        if p != EPSILON and p not in lt.instances:
            raise PreconditionViolation(f"{p.render()} is not in the tree")
        pn = p.child(self.codec.step(atom, pos))
        inst = lt.instances.get(pn)
        # a ghost only displays a dead path, so adding there regrows it
        if inst is not None and not inst.ghost:
            raise PreconditionViolation(f"{pn.render()} is already in the tree")

    def _commit(self, atom: str, parent: Any, clock: ReplicaClock, pos: Any) -> TreeOp:
        p = Path(parent)
        pn = p.child(self.codec.step(atom, pos))
        op = self.paths.local_add(pn, clock)
        return TreeOp(ADD, pn, p, (op,))

    def gen_rmv(self, target: Any, clock: ReplicaClock) -> TreeOp:
        if self.kind == "g":
            raise PreconditionViolation("grow-only trees cannot remove")
        p = Path(target)
        if p == EPSILON:
            raise PreconditionViolation("the root path is always present")
        lt = self.lookup()
        if p not in lt.instances:
            raise PreconditionViolation(f"{p.render()} is not in the tree")
        doomed = self._doomed_paths(lt, p)
        ops = tuple(self.paths.local_rmv(q, clock) for q in doomed)
        return TreeOp(RMV, p, None, ops)

    def _doomed_paths(self, lt: LookupTree, p: Path) -> List[Path]:
        """The set elements behind every shown path extending p."""
        if self.connect_policy in MONOTONE_CONNECT:
            doomed = self.subtree_nodes(lt, p)
        else:
            images = path_images(self.live_paths(), self.connect_policy)
            doomed = {
                src
                for src, img in images.items()
                if img is not None and img.starts_with(p)
            }
        return sorted(doomed, key=Path.order_key)

    # --- synchronization ---

    def apply_remote(self, op: TreeOp) -> None:
        for sub in op.node_ops:
            self.paths.apply(sub)

