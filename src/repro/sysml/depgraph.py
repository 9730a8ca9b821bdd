"""Fine-grained model fingerprints and the resolution dependency graph.

The incremental engine needs two facts about every part of a model:

* **what is here** — :func:`deep_fingerprint`, a Merkle hash over the
  purely *syntactic* content of a subtree (names, kinds, typings,
  values, connector chains — never resolved pointers, never source
  locations, so comment-only edits hash equal);
* **who resolved through what** — a :class:`DepGraph` recorded while
  the resolver runs, with two edge kinds:

  - *target* edges point from a consumer to the subtree anchor its
    reference finally resolved to; they go stale when the producer's
    deep fingerprint changes (any content edit);
  - *scope* edges point from a consumer to every namespace its lookup
    *consulted* on the way (owner-chain walk, imports, supertype
    tables); they go stale only when that namespace's
    :func:`scope_fingerprint` changes — its declaration head, member
    name/kind table, imports or aliases — so a value edit deep inside
    a consulted scope dirties nobody.

Anchors are the granularity of invalidation: the model root's direct
children plus every *named* package or part usage. Everything else
(attributes, connectors, anonymous members) belongs to its nearest
anchor. :class:`NodeKey` names an anchor by class + path, stably across
loads of the same sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..fingerprint import DEPS_SALT, NODE_SALT, fingerprint
from .elements import (Alias, Assignment, BindingConnector, Connector,
                       Definition, Element, Import, Model, Namespace,
                       Package, PartUsage, PerformAction, RedefinitionUsage,
                       Type, Usage)
from .ast_nodes import FeatureRefExpr, Literal

# Cached-attribute names (stored in element __dict__, invalidated by the
# merge along changed ancestor chains).
_DEEP_ATTR = "_repro_deep_fp"
_SCOPE_ATTR = "_repro_scope_fp"
_KEY_ATTR = "_repro_node_key"
_ANCHOR_ATTR = "_repro_anchor_key"


@dataclass(frozen=True)
class NodeKey:
    """Stable identity of one model node: element class + model path."""

    kind: str
    path: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.path or '<root>'}"

    def is_under(self, path: str) -> bool:
        """Whether this key's path lies within *path* (inclusive)."""
        return self.path == path or self.path.startswith(path + "::")


#: The model root as a scope (its member table is the top-level names).
ROOT_KEY = NodeKey("Model", "")


def _segment(element: Element, ordinal: int | None = None) -> str:
    """One path segment — syntactic, so it is identical before and
    after resolution (``:>> ip = ...`` contributes ``ip`` even while
    its resolver-assigned name is still unset). Pass *ordinal* when
    the caller already knows the element's position among its
    siblings (``local_ordinal`` scans the sibling list)."""
    name = element.name
    if name is None and isinstance(element, RedefinitionUsage) \
            and element.redefinition_names:
        name = element.redefinition_names[0].parts[-1]
    if name:
        return name
    return f"#{element.local_ordinal if ordinal is None else ordinal}"


def node_path(element: Element) -> str:
    """``Pkg::Part::child`` path of an element from the model root."""
    parts: list[str] = []
    node: Element | None = element
    while node is not None and not isinstance(node, Model):
        parts.append(_segment(node))
        node = node.owner
    return "::".join(reversed(parts))


def is_anchor(element: Element) -> bool:
    """Anchors: root children plus named packages, definitions and
    part usages — the granularity at which dirtiness is tracked."""
    if isinstance(element, Model):
        return False
    if isinstance(element.owner, Model):
        return True
    return isinstance(element, (Package, Definition, PartUsage)) \
        and bool(element.name)


def node_key(element: Element) -> NodeKey:
    """The (cached) :class:`NodeKey` of one element."""
    if isinstance(element, Model):
        return ROOT_KEY
    cached = element.__dict__.get(_KEY_ATTR)
    if cached is None:
        cached = NodeKey(type(element).__name__, node_path(element))
        element.__dict__[_KEY_ATTR] = cached
    return cached


def anchor_key(element: Element) -> NodeKey:
    """The key of the nearest enclosing anchor (or the root)."""
    cached = element.__dict__.get(_ANCHOR_ATTR)
    if cached is not None:
        return cached
    node: Element | None = element
    while node is not None and not isinstance(node, Model):
        if is_anchor(node):
            key = node_key(node)
            break
        node = node.owner
    else:
        key = ROOT_KEY
    element.__dict__[_ANCHOR_ATTR] = key
    return key


# -- syntactic signatures ----------------------------------------------------

def _value_signature(value: object) -> object:
    if isinstance(value, Literal):
        return ("lit", type(value.value).__name__, value.value)
    if isinstance(value, FeatureRefExpr):
        return ("ref", str(value.chain))
    if value is None:
        return None
    return ("expr", type(value).__name__, str(value))


def _name_of(element: Element) -> str | None:
    """Syntactic name (normalizing the ``:>>`` shorthand, whose real
    name is assigned by the resolver)."""
    if isinstance(element, RedefinitionUsage) and element.redefinition_names:
        return element.redefinition_names[0].parts[-1]
    return element.name


def own_signature(element: Element) -> tuple:
    """Every syntactic fact about one element, children excluded.

    Deliberately omits resolved pointers (``typ``, ``specializations``,
    ``redefines``, connector ends) and source locations: the signature
    must be identical before and after resolution, and comment-only
    edits — which only shift locations — must hash equal.
    """
    signature: list[object] = [type(element).__name__, _name_of(element),
                               element.documentation]
    if isinstance(element, Package):
        signature.append(("library", element.is_library))
    if isinstance(element, Import):
        signature.append(("import", str(element.target_name),
                          element.wildcard, element.recursive))
    if isinstance(element, Alias):
        signature.append(("alias", str(element.target_name)))
    if isinstance(element, Type):
        signature.append(("type", element.is_abstract,
                          tuple(str(n)
                                for n in element.specialization_names)))
    if isinstance(element, Usage):
        multiplicity = element.multiplicity
        signature.append((
            "usage", element.kind, element.direction, element.is_reference,
            str(element.type_name) if element.type_name else None,
            element.conjugated,
            tuple(str(n) for n in element.redefinition_names),
            _value_signature(element.value),
            (multiplicity.lower, multiplicity.upper)
            if multiplicity is not None else None,
        ))
    if isinstance(element, BindingConnector):
        signature.append(("bind", str(element.left_chain),
                          str(element.right_chain)))
    if isinstance(element, Connector):
        signature.append(("connect", element.connector_kind,
                          str(element.type_name)
                          if element.type_name else None,
                          str(element.source_chain),
                          str(element.target_chain)))
    if isinstance(element, PerformAction):
        signature.append(("perform", str(element.target_chain)))
    if isinstance(element, Assignment):
        signature.append(("assign", element.direction,
                          _value_signature(element.value)))
    return tuple(signature)


def deep_fingerprint(element: Element) -> str:
    """Merkle hash of one subtree's full syntactic content (cached)."""
    cached = element.__dict__.get(_DEEP_ATTR)
    if cached is not None:
        return cached
    fp = fingerprint(own_signature(element),
                     [deep_fingerprint(child)
                      for child in element.owned_elements],
                     salt=NODE_SALT)
    element.__dict__[_DEEP_ATTR] = fp
    return fp


def _scope_head(element: Element) -> tuple:
    """The declaration facts that shape lookups *through* a namespace:
    its supertype clause and typing (inherited members), plus the
    member name/kind table, imports and aliases — but never member
    *content*, so value edits inside members leave it unchanged."""
    head: list[object] = [type(element).__name__, _name_of(element)]
    if isinstance(element, Package):
        head.append(element.is_library)
    if isinstance(element, Type):
        head.append(tuple(str(n) for n in element.specialization_names))
    if isinstance(element, Usage):
        head.append((str(element.type_name) if element.type_name else None,
                     element.conjugated,
                     tuple(str(n) for n in element.redefinition_names)))
    members = tuple(sorted(
        (_name_of(child) or "", type(child).__name__)
        for child in element.owned_elements if _name_of(child)))
    imports = tuple((str(child.target_name), child.wildcard, child.recursive)
                    for child in element.owned_elements
                    if isinstance(child, Import))
    aliases = tuple(sorted(
        (child.name or "", str(child.target_name))
        for child in element.owned_elements if isinstance(child, Alias)))
    return (tuple(head), members, imports, aliases)


def scope_fingerprint(element: Element) -> str:
    """Hash of one namespace *as a lookup scope* (cached)."""
    cached = element.__dict__.get(_SCOPE_ATTR)
    if cached is not None:
        return cached
    fp = fingerprint(_scope_head(element), salt=NODE_SALT + ":scope")
    element.__dict__[_SCOPE_ATTR] = fp
    return fp


def find_by_path(model: Model, path: str) -> Element | None:
    """Resolve a :func:`node_path` back to its element (None if gone)."""
    if not path:
        return model
    scope: Element = model
    for part in path.split("::"):
        found = None
        for ordinal, child in enumerate(scope.owned_elements):
            if _segment(child, ordinal) == part:
                found = child
                break
        if found is None:
            return None
        scope = found
    return scope


def elements_at_paths(model: Model, paths: Iterable[str]
                      ) -> list[Element]:
    """Every element whose :func:`node_path` is one of *paths*, in
    model pre-order.

    Unlike :func:`find_by_path` this finds *all* holders of a path
    (hostile corpora repeat names) and does not assume a segment is
    free of ``::`` (quoted names may contain it): a path that splits
    more than one way is followed down every way. The descent only
    enters elements on the way to a wanted path, so it costs the
    sibling lists along those ways, not the model.
    """
    found: list[Element] = []

    def descend(scope: Element, wanted: list[str]) -> None:
        # bucket the remaining paths by their first naive part: a
        # segment can only prefix a path that starts the same way
        buckets: dict[str, list[str]] = {}
        for rest in wanted:
            buckets.setdefault(rest.split("::", 1)[0], []).append(rest)
        for ordinal, child in enumerate(scope.owned_elements):
            segment = _segment(child, ordinal)
            candidates = buckets.get(segment.split("::", 1)[0])
            if not candidates:
                continue
            prefix = segment + "::"
            deeper = [rest[len(prefix):] for rest in candidates
                      if rest.startswith(prefix)]
            if segment in candidates:
                found.append(child)
            if deeper:
                descend(child, deeper)

    wanted = sorted({path for path in paths if path})
    if wanted:
        descend(model, wanted)
    return found


# -- the per-model index -----------------------------------------------------

def _indexed(element: Element) -> bool:
    """Whether :meth:`NodeIndex.of_model` files *element* under its key
    (anchors in ``deep``, namespaces in ``scope``)."""
    return is_anchor(element) or isinstance(element, Namespace)


class NodeIndex:
    """Every anchor's deep hash and every namespace's scope hash, for
    one model state.

    :meth:`of_model` builds it cold; :meth:`refresh` brings it up to
    date in place after an incremental merge, at a cost proportional to
    what the merge touched. When several elements share a key (hostile
    corpora repeat names) the one last in model pre-order wins, exactly
    as a cold build's overwriting pass leaves it.
    """

    def __init__(self) -> None:
        #: anchor key -> deep (Merkle) fingerprint
        self.deep: dict[NodeKey, str] = {}
        #: namespace key -> scope fingerprint (includes :data:`ROOT_KEY`)
        self.scope: dict[NodeKey, str] = {}
        #: keys held by more than one indexed element; a refresh looks
        #: their holders up by path instead of trusting one visit
        self.shared: set[NodeKey] = set()

    @classmethod
    def of_model(cls, model: Model) -> "NodeIndex":
        index = cls()
        index.scope[ROOT_KEY] = scope_fingerprint(model)
        filed = [0, 0]  # anchors, namespaces

        def visit(element: Element) -> None:
            if is_anchor(element):
                filed[0] += 1
                index.deep[node_key(element)] = deep_fingerprint(element)
            if isinstance(element, Namespace):
                filed[1] += 1
                index.scope[node_key(element)] = scope_fingerprint(element)
            for child in element.owned_elements:
                visit(child)

        for child in model.owned_elements:
            visit(child)
        # holders of one key share a class, so they are all namespaces
        # or all (non-namespace) anchors: a shared key shows up as a
        # count above its table's size
        if filed[0] > len(index.deep) or filed[1] > len(index.scope) - 1:
            index.shared = _shared_keys(model)
        return index

    def changed_since(self, previous: "NodeIndex",
                      keys: Iterable[NodeKey] | None = None
                      ) -> tuple[set[NodeKey], set[NodeKey]]:
        """Keys whose deep / scope hash differs from *previous* —
        including keys present on only one side (added or removed).

        With *keys*, only those are compared (and *previous* need hold
        no others): the diff after a :meth:`refresh`, which returns the
        touched keys and their former entries.
        """
        if keys is None:
            deep_keys = self.deep.keys() | previous.deep.keys()
            scope_keys = self.scope.keys() | previous.scope.keys()
        else:
            deep_keys = scope_keys = set(keys)
        deep_changed = {key for key in deep_keys
                        if self.deep.get(key) != previous.deep.get(key)}
        scope_changed = {key for key in scope_keys
                         if self.scope.get(key) != previous.scope.get(key)}
        return deep_changed, scope_changed

    def refresh(self, model: Model, stale: list[Element],
                freed: set[NodeKey]) -> tuple["NodeIndex", set[NodeKey]]:
        """Update the index in place after an in-place edit of *model*.

        *stale* lists the elements whose cached fingerprints or keys the
        edit dropped (:func:`stale_elements`); *freed* holds the old
        keys of elements that left the model or were re-keyed. Nothing
        else is visited. Returns ``(before, touched)``: the touched keys
        and a partial index of their former entries (``shared`` included),
        ready for :meth:`changed_since`.
        """
        holders: dict[NodeKey, list[Element]] = {}
        # a holder that had no cached key is new to its key (fresh or
        # re-keyed); read this before node_key() below caches one
        fresh: set[NodeKey] = set()
        for element in stale:
            if _indexed(element):
                had_key = _KEY_ATTR in element.__dict__
                key = node_key(element)
                holders.setdefault(key, []).append(element)
                if not had_key:
                    fresh.add(key)

        touched = set(holders) | freed | {ROOT_KEY}
        before = NodeIndex()
        for key in touched:
            if key in self.deep:
                before.deep[key] = self.deep[key]
            if key in self.scope:
                before.scope[key] = self.scope[key]
        before.shared = self.shared & touched
        self.scope[ROOT_KEY] = scope_fingerprint(model)

        searched: set[NodeKey] = set()
        for key in touched - {ROOT_KEY}:
            found = holders.get(key, [])
            # another holder may exist that this edit did not visit: the
            # key was shared, or is new to a fresh element although an
            # old holder kept it
            if key in self.shared or len(found) > 1 \
                    or (key in fresh and key not in freed
                        and (key in before.deep or key in before.scope)):
                searched.add(key)
            else:
                self._file(key, found)
        if searched:
            found_by_key: dict[NodeKey, list[Element]] = {
                key: [] for key in searched}
            for element in elements_at_paths(
                    model, {key.path for key in searched}):
                if _indexed(element) and node_key(element) in searched:
                    found_by_key[node_key(element)].append(element)
            for key, found in found_by_key.items():
                self._file(key, found)
        return before, touched

    def _file(self, key: NodeKey, elements: list[Element]) -> None:
        """Set *key*'s entries from its live holders, in pre-order."""
        anchors = [element for element in elements if is_anchor(element)]
        spaces = [element for element in elements
                  if isinstance(element, Namespace)]
        if anchors:
            self.deep[key] = deep_fingerprint(anchors[-1])
        else:
            self.deep.pop(key, None)
        if spaces:
            self.scope[key] = scope_fingerprint(spaces[-1])
        else:
            self.scope.pop(key, None)
        if len(elements) > 1:
            self.shared.add(key)
        else:
            self.shared.discard(key)


def _shared_keys(model: Model) -> set[NodeKey]:
    """Keys held by more than one indexed element of *model*."""
    seen: set[NodeKey] = set()
    shared: set[NodeKey] = set()
    stack = list(model.owned_elements)
    while stack:
        element = stack.pop()
        if _indexed(element):
            key = node_key(element)
            if key in seen:
                shared.add(key)
            seen.add(key)
        stack.extend(element.owned_elements)
    return shared


def stale_elements(changed: Iterable[Element]) -> list[Element]:
    """What an in-place edit left for :meth:`NodeIndex.refresh` to
    re-visit: the *changed* elements (edited, added, re-keyed, or with
    a changed member list), their ancestors (whose Merkle hashes embed
    them) and every descendant missing a cached deep fingerprint or
    key. Call it before anything computes a fingerprint: that would
    refill the children's caches and hide them."""
    stale: dict[int, Element] = {}
    stack: list[Element] = []
    for element in changed:
        node: Element | None = element
        while node is not None and not isinstance(node, Model) \
                and id(node) not in stale:
            stale[id(node)] = node
            node = node.owner
        stack.append(element)
    while stack:
        for child in stack.pop().owned_elements:
            cached = child.__dict__
            if (_DEEP_ATTR not in cached or _KEY_ATTR not in cached) \
                    and id(child) not in stale:
                stale[id(child)] = child
                stack.append(child)
    return list(stale.values())


# -- the dependency graph ----------------------------------------------------

class DepGraph:
    """Who-resolved-through-whom, recorded during name resolution.

    Consumers are anchor keys; producers are anchor keys (target edges)
    or namespace keys (scope edges). The graph is additive during a
    resolve pass; :meth:`drop_consumers` clears a consumer's edges
    right before it is re-resolved so stale edges never accumulate.
    """

    def __init__(self) -> None:
        self.target_deps: dict[NodeKey, set[NodeKey]] = {}
        self.scope_deps: dict[NodeKey, set[NodeKey]] = {}

    def record_target(self, consumer: NodeKey, producer: NodeKey) -> None:
        if producer != consumer:
            self.target_deps.setdefault(consumer, set()).add(producer)

    def record_scope(self, consumer: NodeKey, scope: NodeKey) -> None:
        if scope != consumer:
            self.scope_deps.setdefault(consumer, set()).add(scope)

    def drop_consumers(self, consumers: Iterable[NodeKey]) -> None:
        for consumer in consumers:
            self.target_deps.pop(consumer, None)
            self.scope_deps.pop(consumer, None)

    def consumers(self) -> set[NodeKey]:
        return set(self.target_deps) | set(self.scope_deps)

    def consumers_affected(self, deep_changed: set[NodeKey],
                           scope_changed: set[NodeKey]) -> set[NodeKey]:
        """Consumers with a target edge into *deep_changed* or a scope
        edge into *scope_changed*."""
        affected: set[NodeKey] = set()
        if deep_changed:
            for consumer, producers in self.target_deps.items():
                if producers & deep_changed:
                    affected.add(consumer)
        if scope_changed:
            for consumer, scopes in self.scope_deps.items():
                if scopes & scope_changed:
                    affected.add(consumer)
        return affected

    def producers_of(self, consumers: Iterable[NodeKey]) -> set[NodeKey]:
        """Every target producer any of *consumers* resolved to."""
        producers: set[NodeKey] = set()
        for consumer in consumers:
            producers |= self.target_deps.get(consumer, set())
        return producers

    def deps_fingerprint(self, consumers: Iterable[NodeKey],
                         index: NodeIndex) -> str:
        """Hash of everything *consumers* resolved to — the
        ``deps_fingerprint`` half of a per-node cache key. Built from
        target producers' deep hashes only: a scope change that alters
        a resolution outcome necessarily changes the recorded target
        set, and one that does not cannot change generated bytes."""
        producers = self.producers_of(consumers)
        pairs = sorted((str(key), index.deep.get(key, ""))
                       for key in producers)
        return fingerprint(pairs, salt=DEPS_SALT)

    def producer_closure(self, start: Iterable[NodeKey]) -> set[NodeKey]:
        """Transitive target producers reachable from *start*.

        A machine usage has a direct edge to its definition, which has
        its own edge to *its* supertype — following the chain captures
        the whole inheritance/value closure that shapes elaboration,
        including supertypes the consumer never referenced directly.
        """
        closure: set[NodeKey] = set()
        frontier = list(start)
        while frontier:
            key = frontier.pop()
            for producer in self.target_deps.get(key, ()):
                if producer not in closure:
                    closure.add(producer)
                    frontier.append(producer)
        return closure


class DepRecorder:
    """Resolver-facing recording facade: tracks the element currently
    being resolved and writes its lookups into a :class:`DepGraph`."""

    def __init__(self, graph: DepGraph):
        self.graph = graph
        self._consumer: NodeKey | None = None

    def set_consumer(self, element: Element | None) -> None:
        self._consumer = None if element is None else anchor_key(element)

    def consulted(self, scope_element: Element) -> None:
        """A lookup consulted *scope_element*'s member table (and, when
        it is a type, its inherited tables)."""
        consumer = self._consumer
        if consumer is None:
            return
        self.graph.record_scope(consumer, node_key(scope_element))
        if isinstance(scope_element, Type):
            for general in scope_element.all_supertypes():
                self.graph.record_scope(consumer, node_key(general))

    def consulted_subtree(self, scope_element: Element) -> None:
        """A lookup walked the whole subtree (recursive wildcard
        import): depend on its full content, not just its head."""
        if self._consumer is not None:
            self.graph.record_target(self._consumer,
                                     anchor_key(scope_element))

    def resolved(self, element: Element | None) -> None:
        """A reference resolved to *element*."""
        if self._consumer is not None and element is not None \
                and not isinstance(element, Model):
            self.graph.record_target(self._consumer, anchor_key(element))


# -- dirty-subtree utilities -------------------------------------------------

def subtree_anchor_keys(element: Element) -> set[NodeKey]:
    """Anchor keys of every element in *element*'s subtree (the seed
    set for :meth:`DepGraph.producer_closure` over one model node)."""
    keys = {anchor_key(element)}

    def visit(node: Element) -> None:
        if is_anchor(node):
            keys.add(node_key(node))
        for child in node.owned_elements:
            visit(child)

    visit(element)
    return keys


def node_dependency_fingerprints(model: Model, graph: DepGraph,
                                 index: NodeIndex,
                                 *paths: str) -> tuple[str, str] | None:
    """``(node_fp, deps_fp)`` of the node group rooted at *paths*.

    ``node_fp`` hashes the group's own syntactic content; ``deps_fp``
    hashes the deep fingerprints of every *external* producer its
    resolution closure reaches (definitions, supertypes, referenced
    values). Together they key per-node artifacts: the generated bytes
    can only change if one of the two fingerprints changes. Returns
    ``None`` when any path no longer resolves to an element.
    """
    roots: list[tuple[str, Element]] = []
    for path in paths:
        element = find_by_path(model, path) if path else None
        if element is None:
            return None
        roots.append((path, element))
    node_fp = fingerprint(
        [(path, deep_fingerprint(element)) for path, element in roots],
        salt=NODE_SALT)
    seeds: set[NodeKey] = set()
    for _, element in roots:
        seeds |= subtree_anchor_keys(element)
    external = {key for key in graph.producer_closure(seeds)
                if not any(key.is_under(path) for path, _ in roots)}
    pairs = sorted((str(key), index.deep.get(key, "")) for key in external)
    return node_fp, fingerprint(pairs, salt=DEPS_SALT)


def elements_anchored_in(model: Model, dirty: set[NodeKey]
                         ) -> list[Element]:
    """Pre-order list of every element whose nearest anchor is dirty.

    A clean anchor nested inside a dirty one keeps its subtree out of
    the list (its own resolution state is still valid). The order is
    the model's pre-order — the resolver's order on a cold load — but
    the walk starts from the dirty anchors, found by path: it enters
    only their ancestors and their dirty subtrees.
    """
    guide: set[int] = set()
    for holder in elements_at_paths(model, {key.path for key in dirty}):
        node = holder.owner
        while node is not None and id(node) not in guide:
            guide.add(id(node))
            node = node.owner
    collected: list[Element] = []

    def visit(element: Element, inside_dirty: bool) -> None:
        if is_anchor(element):
            inside_dirty = node_key(element) in dirty
        if inside_dirty:
            collected.append(element)
        if inside_dirty or id(element) in guide:
            for child in element.owned_elements:
                visit(child, inside_dirty)

    if id(model) in guide:
        for child in model.owned_elements:
            visit(child, False)
    return collected
