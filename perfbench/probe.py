"""One fresh start of a campaign workload, for ``setup_s``.

Usage: ``python3 perfbench/probe.py SRC CAMPAIGN.toml JOBS``

Imports the campaign layer, loads the campaign file and every system
spec it names, and with JOBS > 1 spawns the warm worker pool; then
prints ``ready`` and exits.  The caller times process start to that
line.
"""

import sys


def main() -> int:
    src, path, jobs = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from repro.core import workerpool
    from repro.core.campaign import load_campaign
    from repro.systems.catalog import resolve_system

    spec = load_campaign(path)
    for system in spec.systems:
        resolve_system(system)
    if jobs > 1:
        pool = workerpool.get_pool(jobs)
        for future in [pool.submit(abs, -i) for i in range(jobs)]:
            future.result()
    print("ready", flush=True)
    workerpool.shutdown_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
