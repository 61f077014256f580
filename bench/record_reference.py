"""Record reference.json: every input in every workload's pool, run once.

    python3 bench/record_reference.py            # all workloads (a few minutes)
    python3 bench/record_reference.py tilde      # one workload

Run it only on code whose outputs are trusted; the benchmark checks every
later run against these values.  The tilde entries also record how many
surface queries were clamped, counted through a proxy surface, which only
the traced run can compare against.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import surrtest  # noqa: E402
import workloads  # noqa: E402
from surrtest import simulate  # noqa: E402


class _CountingSurface:
    def __init__(self, surface):
        self.surface = surface
        self.clamped = 0

    def evaluate_many(self, s0s, w0s):
        vals, clamped = self.surface.evaluate_many(s0s, w0s)
        self.clamped += clamped
        return vals, clamped


def _record(cls, workdir: Path) -> dict:
    groups = {}
    for group in cls.groups():
        wl = cls(group, workdir / group)
        entries = {}
        with workloads.quiet():
            for key in cls.keys(group):
                entries[key] = wl.record(wl.call(key))
                if cls is workloads.Tilde:
                    proxy = _CountingSurface(wl.surface)
                    value = simulate.tilde_delta_h(proxy, workloads.SETTING, cls.DRAWS,
                                                   int(key))
                    if value != entries[key]["value"]:
                        raise RuntimeError(f"tilde key {key}: repeat gave another value")
                    entries[key]["surface_clamped"] = proxy.clamped
        groups[group] = entries
        print(f"{cls.name}: group {group} recorded ({len(entries)} keys)", flush=True)
    return {"ops_per_call": cls.ops_per_call, "groups": groups}


def main():
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    path = BENCH / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    ref["surrtest_version"] = surrtest.__version__
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for name in names:
            ref[name] = _record(workloads.WORKLOADS[name], Path(tmp))
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
