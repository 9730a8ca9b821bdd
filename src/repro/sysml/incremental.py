"""Incremental model loading: merge edited sources into a live model.

A :class:`ModelSession` holds one resolved model plus the bookkeeping
needed to absorb source edits without a cold reload:

1. per-source text fingerprints decide which sources changed, and a
   token comparison with the previous text decides which of those even
   need reparsing — a comment or layout edit does not (the parse cache
   absorbs repeats of previously-seen text);
2. changed sources are rebuilt into throwaway element fragments and
   **merged** into the live model — elements whose subtree fingerprint
   is unchanged are *kept by identity*, so resolved references from the
   rest of the model stay valid;
3. the per-node fingerprint index (:class:`~.depgraph.NodeIndex`) is
   **refreshed** in place: the merge dropped the cached fingerprints
   of every changed element and its ancestors, and the keys of every
   element whose path moved, so only those elements are re-visited and
   only their keys (plus the keys of dropped subtrees) are diffed
   against their former entries — the diff plus the recorded
   dependency graph yields the **dirty anchor set**;
4. only elements anchored in dirty subtrees get their resolved state
   cleared and re-resolved (:meth:`Resolver.resolve_only`), collected
   by a walk that starts from the dirty anchors; a fixpoint loop
   catches second-order effects (an element whose *resolution* changed
   without its syntax changing — e.g. through new shadowing —
   re-dirties its consumers).

An edit therefore costs what it touches: the edited subtrees, their
ancestor chains and the dirty anchors, never a pass over the model.

Any failure mid-update falls back to a cold rebuild, so the session is
never left half-merged; if the *cold* rebuild also fails the error
propagates exactly as a fresh :func:`load_model` would have raised it,
after the session has reloaded the last good revision whenever the
failed update had already merged into the live model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from ..fingerprint import fingerprint
from ..obs import span as _span
from .builder import ModelBuilder
from .depgraph import (NodeIndex, NodeKey, _name_of, anchor_key,
                       deep_fingerprint, elements_anchored_in, is_anchor,
                       node_key, own_signature, stale_elements, DepGraph,
                       DepRecorder)
from .elements import (Alias, Assignment, BindingConnector, Connector,
                       Element, Import, Model, Package, PerformAction,
                       RedefinitionUsage, Type, Usage)
from .lexer import iter_tokens
from .resolver import Resolver, _parse_sources, model_fingerprint

_DEEP_ATTR = "_repro_deep_fp"
_SCOPE_ATTR = "_repro_scope_fp"
_KEY_ATTR = "_repro_node_key"
_ANCHOR_ATTR = "_repro_anchor_key"

_SOURCE_SALT = "sysml-source-text/1"

#: Second-order re-resolution rounds before giving up on convergence
#: and falling back to a cold rebuild.
_MAX_SEMANTIC_ROUNDS = 8


class IncrementalFallback(Exception):
    """Raised internally when an update cannot be applied incrementally."""


@dataclass(frozen=True)
class ModelUpdate:
    """What one :meth:`ModelSession.update` actually did."""

    #: Filenames of sources whose text changed (and were re-merged).
    changed_sources: tuple[str, ...] = ()
    #: Anchors whose subtrees were re-resolved (syntactically changed,
    #: affected through the dependency graph, or semantically re-dirtied
    #: by the fixpoint) — the engine's unit of downstream invalidation.
    dirty_anchors: frozenset = frozenset()
    #: Anchors present before the update and gone after it.
    removed_anchors: frozenset = frozenset()
    #: Anchors whose subtree content *locally* changed (head edits, new
    #: or removed members) — unlike :attr:`dirty_anchors` this excludes
    #: ancestors that are dirty only because a nested anchor changed,
    #: so it is the precise set for artifact invalidation.
    edited_anchors: frozenset = frozenset()
    #: Anchors holding elements whose *resolution* changed (possibly
    #: without any syntactic change under them — shadowing effects).
    semantic_anchors: frozenset = frozenset()
    #: Elements whose references were re-resolved (over all rounds).
    reresolved_elements: int = 0
    #: Elements the node-index refresh re-visited (re-fingerprinted).
    reindexed_elements: int = 0
    #: Semantic-propagation rounds it took to converge (0 = no dirt).
    rounds: int = 0
    #: True when the update was applied as a cold rebuild instead
    #: (first load, fallback, or a structural change too broad to chase).
    full_rebuild: bool = False

    @property
    def clean(self) -> bool:
        """No semantic change at all — every artifact may be reused."""
        return (not self.full_rebuild and not self.dirty_anchors
                and not self.removed_anchors and not self.edited_anchors
                and not self.semantic_anchors)

    @property
    def changed_anchors(self) -> frozenset:
        """Anchors whose derived artifacts cannot be reused: locally
        edited, removed, or semantically re-resolved differently."""
        return self.edited_anchors | self.semantic_anchors \
            | self.removed_anchors


def _same_tokens(old: str, new: str) -> bool:
    """Whether two source texts lex to the same token kinds and values
    (stopping at the first difference, so an edit near the top of a
    large file costs a few tokens)."""
    for before, after in zip_longest(iter_tokens(old), iter_tokens(new)):
        if before is None or after is None or before.kind != after.kind \
                or before.value != after.value:
            return False
    return True


def clear_resolved_state(element: Element) -> None:
    """Reset every resolver-written field of *element* to its
    freshly-built state (syntactic fields are untouched)."""
    if isinstance(element, Type):
        element.specializations = []
    if isinstance(element, Usage):
        element.typ = None
        element.redefines = []
        if isinstance(element, RedefinitionUsage) \
                and element.redefinition_names:
            # the resolver re-derives the name from the redefined feature
            element.name = None
    if isinstance(element, Import):
        element.target = None
    if isinstance(element, Alias):
        element.target = None
    if isinstance(element, BindingConnector):
        element.left = None
        element.right = None
    if isinstance(element, Connector):
        element.typ = None
        element.source = None
        element.target = None
    if isinstance(element, PerformAction):
        element.target = None
    if isinstance(element, Assignment):
        element.resolved_value = None


def _semantic_state(element: Element) -> tuple:
    """Identity snapshot of every resolved pointer of *element* — two
    states compare equal exactly when re-resolution landed on the same
    objects."""
    state: list[object] = []
    if isinstance(element, Type):
        state.append(tuple(id(t) for t in element.specializations))
    if isinstance(element, Usage):
        state.append((id(element.typ) if element.typ is not None else None,
                      tuple(id(r) for r in element.redefines)))
    if isinstance(element, (Import, Alias, PerformAction)):
        state.append(id(element.target)
                     if element.target is not None else None)
    if isinstance(element, BindingConnector):
        state.append((id(element.left) if element.left is not None else None,
                      id(element.right)
                      if element.right is not None else None))
    if isinstance(element, Connector):
        state.append((
            id(element.typ) if element.typ is not None else None,
            id(element.source) if element.source is not None else None,
            id(element.target) if element.target is not None else None))
    if isinstance(element, Assignment):
        state.append(id(element.resolved_value)
                     if element.resolved_value is not None else None)
    return tuple(state)


# -- structural merge --------------------------------------------------------

def _match_key(element: Element) -> tuple | None:
    """Pairing key for named elements (None → pair by content hash)."""
    name = _name_of(element)
    if not name:
        return None
    if isinstance(element, Connector):
        return (type(element).__name__, element.connector_kind, name)
    return (type(element).__name__, name)


_HEAD_FIELDS = {
    Package: ("is_library",),
    Import: ("target_name", "wildcard", "recursive"),
    Alias: ("target_name",),
    Type: ("is_abstract", "specialization_names"),
    Usage: ("direction", "is_reference", "multiplicity", "type_name",
            "conjugated", "redefinition_names", "value"),
    BindingConnector: ("left_chain", "right_chain"),
    Connector: ("type_name", "source_chain", "target_chain"),
    PerformAction: ("target_chain",),
    Assignment: ("direction", "value"),
}


def _copy_head(old: Element, new: Element) -> None:
    """Carry *new*'s syntactic declaration onto the kept *old* object
    (same class, same name) so references *to* old stay valid while its
    content tracks the edit."""
    old.documentation = new.documentation
    old.location = new.location
    for cls, fields in _HEAD_FIELDS.items():
        if isinstance(old, cls):
            for field_name in fields:
                setattr(old, field_name, getattr(new, field_name))


class _Merger:
    """One-shot structural merge of fragment subtrees into a live model."""

    def __init__(self) -> None:
        #: Old subtrees replaced or removed — kept alive until the
        #: semantic fixpoint is done comparing object identities.
        self.dropped: list[Element] = []
        #: Elements whose content locally changed: head-edited kept
        #: elements, newly-taken subtrees, and parents whose member
        #: list changed. Their anchors form ``edited_anchors``.
        self.changed: list[Element] = []
        #: Newly-taken subtrees: fresh, never-resolved objects.
        self.taken: list[Element] = []
        #: Kept subtrees whose path may have moved (anonymous elements
        #: whose ``#ordinal`` segment shifted); their keys were reset.
        self.rekeyed: list[Element] = []
        #: Old keys of the re-keyed subtrees, captured before clearing.
        self.rekeyed_keys: set[NodeKey] = set()

    def clear_keys(self, element: Element) -> None:
        """Reset the cached keys of *element*'s subtree (recomputed
        lazily from its new position), remembering the old ones."""
        self.rekeyed.append(element)
        stack = [element]
        while stack:
            node = stack.pop()
            key = node.__dict__.pop(_KEY_ATTR, None)
            if key is not None:
                self.rekeyed_keys.add(key)
            node.__dict__.pop(_ANCHOR_ATTR, None)
            stack.extend(node.owned_elements)

    def taken_anchors(self) -> set[NodeKey]:
        """Every anchor a newly-taken subtree lies in or holds. Their
        elements are new objects that must be resolved even where an
        old twin left the same key and fingerprint (a definition moved
        to another file), and whoever resolved to that twin must be
        re-resolved onto the new object."""
        keys: set[NodeKey] = set()
        for root in self.taken:
            keys.add(anchor_key(root))
            stack = [root]
            while stack:
                node = stack.pop()
                if is_anchor(node):
                    keys.add(node_key(node))
                stack.extend(node.owned_elements)
        return keys

    def freed_keys(self) -> set[NodeKey]:
        """Every key this merge took away from an element: the keys of
        dropped subtrees and the old keys of re-keyed ones."""
        freed = set(self.rekeyed_keys)
        stack = list(self.dropped)
        while stack:
            node = stack.pop()
            key = node.__dict__.get(_KEY_ATTR)
            if key is not None:
                freed.add(key)
            stack.extend(node.owned_elements)
        return freed

    def merge_lists(self, old_list: list[Element], new_list: list[Element],
                    parent: Element) -> tuple[list[Element], bool, bool]:
        """Merge children lists; returns ``(merged, list_changed,
        any_changed)`` where *list_changed* covers identity/order and
        *any_changed* additionally covers in-place subtree edits."""
        named: dict[tuple, list[Element]] = {}
        anonymous: dict[str, list[Element]] = {}
        for old in old_list:
            key = _match_key(old)
            if key is not None:
                named.setdefault(key, []).append(old)
            else:
                anonymous.setdefault(deep_fingerprint(old), []).append(old)

        merged: list[Element] = []
        any_changed = False
        for new in new_list:
            key = _match_key(new)
            if key is not None and named.get(key):
                old = named[key].pop(0)
                if self.merge_element(old, new):
                    any_changed = True
                merged.append(old)
                continue
            if key is None:
                queue = anonymous.get(deep_fingerprint(new))
                if queue:
                    merged.append(queue.pop(0))
                    continue
            # no counterpart: take the new subtree wholesale
            new.owner = parent
            merged.append(new)
            self.changed.append(new)
            self.taken.append(new)
            any_changed = True

        for leftovers in named.values():
            self.dropped.extend(leftovers)
        for leftovers in anonymous.values():
            self.dropped.extend(leftovers)

        list_changed = len(merged) != len(old_list) or any(
            kept is not old for kept, old in zip(merged, old_list))
        if list_changed:
            any_changed = True
            self.changed.append(parent)
            # positional (#ordinal) path segments of kept anonymous
            # children may have shifted — recompute their keys lazily
            for kept in merged:
                if _match_key(kept) is None:
                    self.clear_keys(kept)
        return merged, list_changed, any_changed

    def merge_element(self, old: Element, new: Element) -> bool:
        """Merge *new* into the kept *old* object; True if anything in
        the subtree changed."""
        head_changed = own_signature(old) != own_signature(new)
        if head_changed:
            _copy_head(old, new)
            self.changed.append(old)
        merged, list_changed, children_changed = self.merge_lists(
            old.owned_elements, new.owned_elements, old)
        if list_changed:
            for child in merged:
                if child.owner is not old:
                    child.owner = old
            old.owned_elements = merged
        if head_changed or children_changed:
            old.__dict__.pop(_DEEP_ATTR, None)
        if head_changed or list_changed:
            old.__dict__.pop(_SCOPE_ATTR, None)
        return head_changed or children_changed


# -- the session -------------------------------------------------------------

class ModelSession:
    """A resolved model that absorbs source edits incrementally.

    Construction performs a cold :func:`load_model`-equivalent (with
    dependency recording); :meth:`update` merges a new revision of the
    sources and returns a :class:`ModelUpdate` describing how little
    work that took. The live model object is stable across updates —
    only dirty subtrees are re-resolved in place.
    """

    def __init__(self, *texts: str, filenames: list[str] | None = None,
                 include_stdlib: bool = True, cache=None, jobs: int = 1,
                 parse_mode: str = "thread"):
        self.include_stdlib = include_stdlib
        self.cache = cache
        self.jobs = jobs
        self.parse_mode = parse_mode
        self.model: Model = None  # type: ignore[assignment]
        self.graph: DepGraph = None  # type: ignore[assignment]
        self.index: NodeIndex = None  # type: ignore[assignment]
        self._sources: list[str] = []
        self._names: list[str] = []
        self._source_fps: list[str] = []
        self._slice_counts: list[int] = []
        #: Set while an update merges into the live model, so a failed
        #: update knows whether the model still matches its sources.
        self._half_merged = False
        self._load_cold(list(texts), list(filenames or []))

    # -- cold path -----------------------------------------------------------

    def _with_stdlib(self, texts: list[str], filenames: list[str]
                     ) -> tuple[list[str], list[str]]:
        from .stdlib import SCALAR_VALUES_SOURCE
        names = list(filenames) or [f"<model{i}>" for i in range(len(texts))]
        sources = list(texts)
        if self.include_stdlib:
            sources.insert(0, SCALAR_VALUES_SOURCE)
            names.insert(0, "<stdlib>")
        return sources, names

    def _load_cold(self, texts: list[str], filenames: list[str]) -> None:
        from .stdlib import IMPLICIT_LIBRARY_PACKAGES
        sources, names = self._with_stdlib(texts, filenames)
        trees = _parse_sources(sources, names, cache=self.cache,
                               jobs=self.jobs, parse_mode=self.parse_mode)
        builder = ModelBuilder()
        counts: list[int] = []
        for tree in trees:
            before = len(builder.model.owned_elements)
            builder.add(tree)
            counts.append(len(builder.model.owned_elements) - before)
        model = builder.build()
        if self.include_stdlib:
            for element in model.owned_elements[:counts[0]]:
                if isinstance(element, Package):
                    element.is_library = True
        else:
            for element in model.owned_elements:
                if isinstance(element, Package) and \
                        element.name in IMPLICIT_LIBRARY_PACKAGES:
                    element.is_library = True
        model.content_fingerprint = model_fingerprint(
            sources, names, include_stdlib=self.include_stdlib)
        graph = DepGraph()
        Resolver(model, recorder=DepRecorder(graph)).resolve()
        self.model = model
        self.graph = graph
        self.index = NodeIndex.of_model(model)
        self.model.dep_graph = graph
        self.model.node_index = self.index
        self._sources = sources
        self._names = names
        self._source_fps = [fingerprint(text, salt=_SOURCE_SALT)
                            for text in sources]
        self._slice_counts = counts
        self._half_merged = False

    # -- incremental path ----------------------------------------------------

    def update(self, *texts: str,
               filenames: list[str] | None = None) -> ModelUpdate:
        """Absorb a new revision of the sources; falls back to a cold
        rebuild on any incremental failure."""
        sources, names = self._with_stdlib(list(texts),
                                           list(filenames or []))
        try:
            with _span("incremental-update"):
                return self._update_incremental(sources, names)
        except Exception:  # noqa: BLE001 - safety valve
            pass
        try:
            # Cold rebuild; if the *sources* are broken this raises the
            # same error a fresh load would.
            self._load_cold(list(texts), list(filenames or []))
        except Exception:
            if self._half_merged:
                # the failed update had already merged into the live
                # model: put the last good revision back, so the next
                # update diffs against what the session really holds
                self._load_cold(*self._revision())
            raise
        return ModelUpdate(
            changed_sources=tuple(names[1:]
                                  if self.include_stdlib else names),
            full_rebuild=True)

    def _revision(self) -> tuple[list[str], list[str]]:
        """The texts and filenames of the revision the session holds,
        without the implicit standard library."""
        skip = 1 if self.include_stdlib else 0
        return self._sources[skip:], self._names[skip:]

    def _update_incremental(self, sources: list[str],
                            names: list[str]) -> ModelUpdate:
        # an unchanged text keeps its hash: comparing is far cheaper
        # than hashing every source of a large model on each edit
        old_texts = self._sources
        new_fps = [self._source_fps[index]
                   if index < len(old_texts) and text == old_texts[index]
                   else fingerprint(text, salt=_SOURCE_SALT)
                   for index, text in enumerate(sources)]
        changed = [index for index in range(len(sources))
                   if index >= len(self._source_fps)
                   or new_fps[index] != self._source_fps[index]]
        changed_names = tuple(names[index] for index in changed
                              if index < len(names))
        # a text that changed only in comments or layout lexes to the
        # same tokens, so it parses to the same tree up to source
        # locations, which the merge never copies onto kept elements:
        # skip its parse, build and merge
        reparse = [index for index in changed
                   if index >= len(old_texts)
                   or not _same_tokens(old_texts[index], sources[index])]
        removed_slices = len(self._source_fps) > len(sources)
        if not reparse and not removed_slices:
            # filenames feed the model fingerprint even when no text
            # changed, so recompute it regardless
            self.model.content_fingerprint = model_fingerprint(
                sources, names, include_stdlib=self.include_stdlib)
            self._set_sources(sources, names, new_fps)
            return ModelUpdate(changed_sources=changed_names)

        trees = self._parse_changed(sources, names, reparse)
        self._half_merged = True
        merger = _Merger()
        self._merge_root(trees, reparse, len(sources), merger)
        # read what the merge left stale before anything re-caches it
        stale = stale_elements(merger.changed + merger.rekeyed)
        index = self.index
        previous, touched = index.refresh(self.model, stale,
                                          merger.freed_keys())
        deep_changed, scope_changed = index.changed_since(previous, touched)
        # a shared key's entry shows only its last holder, so an edit of
        # another holder is invisible in the diff: count it as changed
        masked = (index.shared | previous.shared) & touched
        deep_changed = deep_changed | masked | merger.taken_anchors()
        scope_changed = scope_changed | masked
        removed = frozenset(key for key in touched
                            if key in previous.deep and key not in index.deep)
        self.graph.drop_consumers(removed)
        edited = frozenset(anchor_key(element)
                           for element in merger.changed)

        dirty_now = self._present_anchors(deep_changed, index) \
            | self._present_anchors(
                self.graph.consumers_affected(deep_changed, scope_changed),
                index)

        all_dirty: set[NodeKey] = set()
        semantic: set[NodeKey] = set()
        reresolved = 0
        rounds = 0
        while dirty_now:
            rounds += 1
            if rounds > _MAX_SEMANTIC_ROUNDS:
                raise IncrementalFallback(
                    "semantic propagation did not converge")
            elements = elements_anchored_in(self.model, dirty_now)
            before = {id(e): _semantic_state(e) for e in elements}
            for element in elements:
                clear_resolved_state(element)
            self.graph.drop_consumers(dirty_now)
            Resolver(self.model,
                     recorder=DepRecorder(self.graph)).resolve_only(elements)
            reresolved += len(elements)
            all_dirty |= dirty_now

            sem_changed = [e for e in elements
                           if _semantic_state(e) != before[id(e)]]
            deep2 = {anchor_key(e) for e in sem_changed}
            scope2 = {node_key(e) for e in sem_changed}
            semantic |= deep2
            dirty_now = self._present_anchors(
                self.graph.consumers_affected(deep2, scope2),
                index) - all_dirty

        self.model.content_fingerprint = model_fingerprint(
            sources, names, include_stdlib=self.include_stdlib)
        self._set_sources(sources, names, new_fps)
        self._half_merged = False
        # `merger` stays referenced to here, keeping dropped subtrees
        # alive while the fixpoint compared object identities above.
        assert merger.dropped is not None
        return ModelUpdate(changed_sources=changed_names,
                           dirty_anchors=frozenset(all_dirty),
                           removed_anchors=removed,
                           edited_anchors=edited,
                           semantic_anchors=frozenset(semantic),
                           reresolved_elements=reresolved,
                           reindexed_elements=len(stale), rounds=rounds)

    @staticmethod
    def _present_anchors(keys: set[NodeKey], index: NodeIndex
                         ) -> set[NodeKey]:
        """Restrict to anchors that still exist in the merged model."""
        return {key for key in keys if key in index.deep}

    def _set_sources(self, sources: list[str], names: list[str],
                     fps: list[str]) -> None:
        self._sources = sources
        self._names = names
        self._source_fps = fps

    def _parse_changed(self, sources: list[str], names: list[str],
                       changed: list[int]) -> dict[int, object]:
        parsed = _parse_sources([sources[i] for i in changed],
                                [names[i] for i in changed],
                                cache=self.cache, jobs=self.jobs,
                                parse_mode=self.parse_mode)
        return dict(zip(changed, parsed))

    def _merge_root(self, trees: dict[int, object], changed: list[int],
                    source_count: int, merger: _Merger) -> None:
        old_slices = self._slices()
        merged_root: list[Element] = []
        counts: list[int] = []
        root_changed = False
        for index in range(source_count):
            old_slice = old_slices[index] if index < len(old_slices) else []
            if index in trees:
                fragment = ModelBuilder()
                fragment.add(trees[index])
                new_elements = fragment.model.owned_elements
                if self.include_stdlib and index == 0:
                    for element in new_elements:
                        if isinstance(element, Package):
                            element.is_library = True
                merged, _list_changed, slice_changed = merger.merge_lists(
                    old_slice, new_elements, self.model)
                root_changed = root_changed or slice_changed
            else:
                merged = old_slice
            merged_root.extend(merged)
            counts.append(len(merged))
        for index in range(source_count, len(old_slices)):
            merger.dropped.extend(old_slices[index])
            root_changed = True

        if root_changed:
            self.model.__dict__.pop(_SCOPE_ATTR, None)
        if merged_root != self.model.owned_elements:
            for element in merged_root:
                if element.owner is not self.model:
                    element.owner = self.model
                if _match_key(element) is None:
                    merger.clear_keys(element)
            self.model.owned_elements = merged_root
        self._slice_counts = counts

    def _slices(self) -> list[list[Element]]:
        slices: list[list[Element]] = []
        position = 0
        for count in self._slice_counts:
            slices.append(self.model.owned_elements[position:position + count])
            position += count
        return slices
