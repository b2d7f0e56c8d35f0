"""One traced pipeline run at paper scale, for reference figures (about 10 minutes).

    python3 perfbench/paper_scale.py [--seed 11]

Writes a 27-province, 4221-complaint, 768-d fixture, runs `ecoprod pipeline`
with the settings of fixtures/pipeline_config.json under the tracer, and
prints the wall and CPU time, the peak resident set and every non-zero
per-layer metric.  Its figures sit beside ROADMAP's cProfile table; the
benchmark's workloads do not use it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time

from child import peak_rss_mb
from run import ROOT, WORK, import_ecoprod


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    import_ecoprod(ROOT)
    import fixtures
    import tracing
    from ecoprod import cli

    work = WORK / "paper-scale"
    shutil.rmtree(work, ignore_errors=True)
    config = json.loads((ROOT / "fixtures" / "pipeline_config.json").read_text(encoding="utf-8"))
    config.update(seed=args.seed, out_dir="../out")
    fixtures.generate(fixtures.FixtureSpec(27, 4221, 8, 768), [args.seed, 0], work / "inputs")
    (work / "inputs" / "pipeline_config.json").write_text(json.dumps(config), encoding="utf-8")

    tracer = tracing.install()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(["pipeline", "--config", str(work / "inputs" / "pipeline_config.json")])
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = after.ru_utime + after.ru_stime - usage.ru_utime - usage.ru_stime
    print(f"exit {code}; wall {wall:.1f} s, cpu {cpu:.1f} s, peak {peak_rss_mb():.0f} MB")
    for name, value in tracer.metrics(wall).items():
        if value:
            print(f"{name} {value:.6g}")
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
