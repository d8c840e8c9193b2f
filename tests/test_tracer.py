"""The benchmark against the package: every name its span tracer wraps
exists, a wrapped call records a span, uninstalling puts every original
back, and one episode of each workload passes its checks."""

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


def test_benchmark_episodes_pass_their_checks(monkeypatch, tmp_path):
    # one episode of each benchmark workload, as perfbench/run.py times it:
    # the step count, the energy balance or whistler frequencies, the
    # finite records, the checkpoint round trip (fields read back equal to
    # the state's by np.array_equal) and the bit-identical resume
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, spec in workloads.WORKLOADS.items():
        wl = workloads.Workload(spec, 0, tmp_path)
        episode = wl.episode()
        assert (wl.ops.failed, wl.ops.errors) == (0, []), name
        assert wl.ops.attempted >= episode["steps"] > 0, name
