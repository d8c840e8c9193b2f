"""The benchmark's span tracer against the package: every name it wraps
exists, a wrapped call records a span, and uninstalling puts every
original back."""

from pathlib import Path

from hallmhd import fields
from hallmhd.fields import Grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_the_package_and_restores_it(monkeypatch):
    # the tracer looks the package's functions up by name, so a renamed or
    # deleted one fails here and not only in the benchmark's self-test
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        rebound = list(t._restore)
        fields.zero_field(Grid(8))
        assert [span[0] for span in t.spans] == ["fields.zero_field"]
    finally:
        t.uninstall()
    assert rebound
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, (owner, attr)
