"""Differential tests for the incremental node-index refresh and the
scoped dirty-anchor walk.

:meth:`ModelSession.update` no longer rebuilds the
:class:`~repro.sysml.depgraph.NodeIndex` or walks the whole model: it
refreshes the previous index from what the merge touched and walks only
the dirty subtrees. Both must stay *exactly* what the whole-model passes
compute. After every update of seeded edit sequences:

* the refreshed index equals ``NodeIndex.of_model`` of a cold load of
  the same sources, and the diff over touched keys equals a full
  ``changed_since`` between whole-model indexes;
* the scoped walk returns the same elements, in the same pre-order, as
  the full walk kept here as the reference;
* the merged model resolves exactly like a cold load.

A ×1-vs-×10 test pins the point of it all: a one-driver edit visits as
many elements in a factory ten times the size.
"""

import random
from dataclasses import replace

import pytest

from repro.sysml import load_model
from repro.sysml import incremental as incremental_module
from repro.sysml.depgraph import (NodeIndex, elements_anchored_in, is_anchor,
                                  node_key, node_path)
from repro.sysml.elements import Element
from repro.sysml.incremental import ModelSession
from repro.testkit.corpus import CorpusConfig, generate_scenario

LIBRARY = """
package Lib {
    abstract part def Gadget {
        attribute serial : String;
    }
    part def Widget :> Gadget {
        attribute size : Integer;
    }
    part def Holder {
        part slot : Widget;
    }
}
"""

# Hostile on purpose: a repeated name, a quoted name that reads like a
# qualified path ('a::b' vs a::b), a quoted name that reads like an
# anonymous element's ordinal segment ('#9' vs the 10th member), and
# anonymous members whose ordinal segments (and their named children's
# paths) shift on every reorder.
PLANT = """
package Plant {
    import Lib::*;
    part w1 : Widget {
        attribute size : Integer = 3;
    }
    part w2 : Widget {
        attribute size : Integer = 5;
    }
    part dup : Widget;
    part dup : Holder;
    part 'a::b' : Widget;
    part a {
        part b : Widget;
    }
    part '#9' : Widget;
    part : Widget;
    part : Holder {
        part extra : Widget;
    }
    attribute note : String = "x";
}
"""

EXTRA = """
package Extra {
    import Lib::*;
    part e1 : Widget;
}
"""

NAMES = ["lib.sysml", "plant.sysml"]


def _revisions() -> dict[str, list[str]]:
    """Named revisions of the model; any two of them, in either order,
    make one edit."""
    lib, plant = LIBRARY, PLANT
    return {
        "base": [lib, plant],
        "value": [lib, plant.replace("= 3", "= 4")],
        "comment": [lib, plant + "\n// reviewed\n"],
        "head": [lib, plant.replace("part w2 : Widget", "part w2 : Gadget")],
        "add-member": [lib, plant.replace(
            "attribute note", "part w3 : Widget;\n    attribute note")],
        "remove-member": [lib, plant.replace(
            "    part w2 : Widget {\n        attribute size : Integer = 5;\n"
            "    }\n", "")],
        "anonymous-reorder": [lib, plant.replace(
            "    part : Widget;\n    part : Holder {\n"
            "        part extra : Widget;\n    }\n",
            "    part : Holder {\n        part extra : Widget;\n    }\n"
            "    part : Widget;\n")],
        "anonymous-shift": [lib, plant.replace(
            "    part '#9' : Widget;\n", "")],
        "library": [lib.replace(
            "attribute serial : String;",
            "attribute serial : String;\n        attribute batch : String;"),
            plant],
        "rename": [lib, plant.replace("part w1 :", "part w9 :")],
        "duplicate-added": [lib, plant.replace(
            "    part dup : Holder;\n",
            "    part dup : Holder;\n    part dup : Gadget;\n")],
        "duplicate-removed": [lib, plant.replace(
            "    part dup : Widget;\n", "")],
        "duplicate-edited": [lib, plant.replace(
            "part dup : Holder;",
            "part dup : Holder {\n        part inner : Widget;\n    }")],
        "qualified-looking": [lib, plant.replace(
            "part 'a::b' : Widget;", "part 'a::b' : Gadget;")],
        "source-added": [lib, plant, EXTRA],
        # every element moves to another file: all of them are new
        # objects, with the fingerprints (and keys) of the old ones
        "files-swapped": [plant, lib],
    }


BROKEN = [LIBRARY, PLANT.replace("part w2 : Widget", "part w2 : Nowhere9")]


def full_walk(model, dirty):
    """The whole-model pre-order walk the scoped walk replaced."""
    collected = []

    def visit(element, inside_dirty):
        if is_anchor(element):
            inside_dirty = node_key(element) in dirty
        if inside_dirty:
            collected.append(element)
        for child in element.owned_elements:
            visit(child, inside_dirty)

    for child in model.owned_elements:
        visit(child, False)
    return collected


def cold_model(sources):
    return load_model(*sources, filenames=_names(sources),
                      record_deps=True)


def index_of(sources):
    return cold_model(sources).node_index


_POINTERS = ("specializations", "typ", "redefines", "target", "left",
             "right", "source", "resolved_value")


def resolved_state(model):
    """Every element's resolved pointers, each as the path of its
    target (``<outside>`` for an object no longer in *model*), in
    pre-order."""
    def where(target):
        if target is None:
            return None
        if not isinstance(target, Element):
            return repr(target)
        root = target
        while root.owner is not None:
            root = root.owner
        return node_path(target) if root is model else "<outside>"

    state = []
    stack = list(reversed(model.owned_elements))
    while stack:
        element = stack.pop()
        pointers = []
        for name in _POINTERS:
            value = getattr(element, name, None)
            if isinstance(value, list):
                pointers.append((name, [where(t) for t in value]))
            else:
                pointers.append((name, where(value)))
        state.append((type(element).__name__, node_path(element),
                      pointers))
        stack.extend(reversed(element.owned_elements))
    return state


def _names(sources):
    return [f"file{i}.sysml" for i in range(len(sources))]


def snapshot(index):
    copy = NodeIndex()
    copy.deep = dict(index.deep)
    copy.scope = dict(index.scope)
    return copy


@pytest.fixture
def watched(monkeypatch):
    """Record every touched-key diff and check every scoped walk
    against the full walk while the test runs."""
    diffs = []
    walks = []
    original_diff = NodeIndex.changed_since

    def changed_since(self, previous, keys=None):
        result = original_diff(self, previous, keys)
        if keys is not None:
            diffs.append(result)
        return result

    def walk(model, dirty):
        scoped = elements_anchored_in(model, dirty)
        reference = full_walk(model, dirty)
        assert [id(e) for e in scoped] == [id(e) for e in reference]
        walks.append(len(scoped))
        return scoped

    monkeypatch.setattr(NodeIndex, "changed_since", changed_since)
    monkeypatch.setattr(incremental_module, "elements_anchored_in", walk)
    return diffs, walks


def apply_and_check(live, sources, diffs):
    before = snapshot(live.index)
    diffs.clear()
    update = live.update(*sources, filenames=_names(sources))
    cold = cold_model(sources)
    # the merged model resolves exactly like a cold load: nothing left
    # unresolved, nothing pointing at a dropped element
    assert resolved_state(live.model) == resolved_state(cold)
    reference = cold.node_index
    assert live.index.deep == reference.deep
    assert live.index.scope == reference.scope
    assert live.index.shared == reference.shared
    if not update.full_rebuild:
        full = reference.changed_since(before)
        # no diff at all means no source needed reparsing
        assert diffs == [full] or (not diffs and full == (set(), set()))
    return update


class TestRefreshEqualsFullBuild:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_edit_sequence(self, seed, watched):
        diffs, walks = watched
        revisions = _revisions()
        names = sorted(revisions)
        rng = random.Random(f"index-refresh/{seed}")
        current = revisions["base"]
        live = ModelSession(*current, filenames=_names(current))
        for _ in range(12):
            current = revisions[rng.choice(names)]
            update = apply_and_check(live, current, diffs)
            assert not update.full_rebuild
        assert walks, "no update reached the dirty-anchor walk"

    def test_every_edit_kind_from_base_and_back(self, watched):
        diffs, _walks = watched
        revisions = _revisions()
        base = revisions["base"]
        live = ModelSession(*base, filenames=_names(base))
        for name, sources in sorted(revisions.items()):
            apply_and_check(live, sources, diffs)
            apply_and_check(live, base, diffs)

    def test_failed_update_leaves_the_last_good_revision(self, watched):
        diffs, _walks = watched
        base = [LIBRARY, PLANT]
        live = ModelSession(*base, filenames=_names(base))
        with pytest.raises(Exception, match="Nowhere9"):
            live.update(*BROKEN, filenames=_names(BROKEN))
        # the broken text had been merged in before resolution failed;
        # the session must hold the last good revision again
        assert live.index.deep == index_of(base).deep
        update = apply_and_check(live, base, diffs)
        assert update.clean
        edited = [LIBRARY, PLANT.replace("= 3", "= 8")]
        update = apply_and_check(live, edited, diffs)
        assert not update.full_rebuild and not update.clean

    @pytest.mark.parametrize("seed", [2, 3, 5, 11])
    def test_hostile_corpus_machine_churn(self, seed, watched):
        """Edits of a hostile generated factory: a type edit, swapped
        anonymous members, a dropped machine (and its library source)
        and the machines in reverse order."""
        diffs, _walks = watched
        scenario = generate_scenario(seed, CorpusConfig(hostile=True))
        base = scenario.sources
        last = base[-1]
        lines = last.splitlines(keepends=True)
        # an anonymous bind and connect trade places (ordinals shift)
        at = next(i for i, line in enumerate(lines)
                  if line.strip().startswith("bind ")
                  and lines[i + 1].strip().startswith("connect "))
        swapped = list(lines)
        swapped[at], swapped[at + 1] = swapped[at + 1], swapped[at]
        variants = [
            base,
            base[:-1] + [last.replace(" : Real;", " : Integer;", 1)],
            base[:-1] + ["".join(swapped)],
            replace(scenario, specs=scenario.specs[::-1]).sources,
        ]
        if len(scenario.specs) > 1:
            variants.append(
                replace(scenario, specs=scenario.specs[:-1]).sources)
        live = ModelSession(*base, filenames=_names(base))
        rng = random.Random(f"hostile-churn/{seed}")
        for _ in range(8):
            apply_and_check(live, rng.choice(variants), diffs)


class TestEditCostDoesNotGrowWithTheModel:
    def test_one_driver_edit_visits_the_same_elements_at_x1_and_x10(self):
        from repro.testkit.scale import mega_factory_sources

        def one_driver_edit(scale):
            sources = mega_factory_sources(scale)
            live = ModelSession(*sources)
            index = next(i for i, text in enumerate(sources)
                         if ":>> ip = '" in text)
            edited = list(sources)
            edited[index] = sources[index].replace(
                ":>> ip = '", ":>> ip = '1", 1)
            assert edited[index] != sources[index]
            update = live.update(*edited)
            assert not update.full_rebuild and not update.clean
            return update

        small = one_driver_edit(1)
        large = one_driver_edit(10)
        assert large.reindexed_elements == small.reindexed_elements
        assert large.reresolved_elements == small.reresolved_elements
        assert small.reindexed_elements < 50
