"""ModelSession update semantics.

The session is the resolver-side half of the incremental engine: it
absorbs source edits in place and reports, through
:class:`ModelUpdate`, exactly which anchors the downstream pipeline
must invalidate. These tests pin the precision of that report —
comment edits are clean, a value edit dirties one usage, a library
edit propagates semantically but stays attributed to the library.
"""

import pytest

from repro.sysml import incremental
from repro.sysml.depgraph import find_by_path
from repro.sysml.incremental import ModelSession

LIBRARY = """
package Lib {
    abstract part def Gadget {
        attribute serial : String;
    }
    part def Widget :> Gadget {
        attribute size : Integer;
    }
}
"""

PLANT = """
package Plant {
    import Lib::*;
    part w1 : Widget {
        attribute size : Integer = 3;
    }
    part w2 : Widget {
        attribute size : Integer = 5;
    }
}
"""

NAMES = ["lib.sysml", "plant.sysml"]


def session():
    return ModelSession(LIBRARY, PLANT, filenames=NAMES)


def paths(keys):
    return sorted(key.path for key in keys)


class TestCleanUpdates:
    def test_identical_sources_are_clean(self):
        update = session().update(LIBRARY, PLANT, filenames=NAMES)
        assert update.clean
        assert not update.full_rebuild
        assert update.changed_sources == ()

    def test_comment_only_edit_is_clean(self):
        update = session().update(
            LIBRARY, PLANT + "\n// reviewed\n", filenames=NAMES)
        assert update.clean
        # the file did change — only its meaning did not
        assert update.changed_sources == ("plant.sysml",)


    def test_comment_and_layout_edit_skips_the_parse(self, monkeypatch):
        live = session()
        parsed = []
        original = incremental._parse_sources

        def counting_parse(sources, names, **kwargs):
            parsed.extend(names)
            return original(sources, names, **kwargs)

        monkeypatch.setattr(incremental, "_parse_sources", counting_parse)
        relaid = "// header\n" + PLANT.replace("    ", "\t") + "/* end */"
        update = live.update(LIBRARY, relaid, filenames=NAMES)
        assert update.clean
        assert update.changed_sources == ("plant.sysml",)
        assert parsed == []

    def test_doc_comment_edit_is_not_layout(self):
        documented = LIBRARY.replace(
            "abstract part def Gadget {",
            "abstract part def Gadget {\n        doc /* serialized */")
        update = session().update(documented, PLANT, filenames=NAMES)
        assert not update.clean
        assert paths(update.edited_anchors) == ["Lib::Gadget"]


class TestLocalEdit:
    def test_value_edit_dirties_exactly_one_usage(self):
        update = session().update(
            LIBRARY, PLANT.replace("= 3", "= 4"), filenames=NAMES)
        assert not update.clean
        assert update.changed_sources == ("plant.sysml",)
        assert paths(update.changed_anchors) == ["Plant::w1"]
        assert not update.full_rebuild

    def test_model_object_is_stable_and_reflects_the_edit(self):
        live = session()
        before = live.model
        live.update(LIBRARY, PLANT.replace("= 3", "= 7"), filenames=NAMES)
        assert live.model is before
        assert find_by_path(live.model, "Plant::w1") is not None


class TestLibraryEdit:
    def test_propagates_semantically_but_blames_the_library(self):
        deeper = LIBRARY.replace(
            "attribute serial : String;",
            "attribute serial : String;\n"
            "        attribute batch : String;")
        update = session().update(deeper, PLANT, filenames=NAMES)
        assert update.changed_sources == ("lib.sysml",)
        # local edits name the library anchor only...
        assert paths(update.edited_anchors) == ["Lib::Gadget"]
        # ...while the dirty set reaches every dependent usage
        dirty = paths(update.dirty_anchors)
        assert "Plant::w1" in dirty and "Plant::w2" in dirty
        assert update.rounds >= 1


class TestStructuralChange:
    def test_removed_source_reports_removed_anchors(self):
        live = session()
        update = live.update(LIBRARY, filenames=["lib.sysml"])
        assert not update.clean
        assert "Plant::w1" in paths(update.removed_anchors)
        assert find_by_path(live.model, "Plant::w1") is None

    def test_broken_revision_raises_like_a_cold_load(self):
        live = session()
        with pytest.raises(Exception, match="Nowhere9"):
            live.update(LIBRARY, PLANT.replace("Widget", "Nowhere9"),
                        filenames=NAMES)
