"""One set-up measurement in a fresh process, printed as a JSON line.

    python3 perfbench/probe_setup.py <workload> <config or ''> <first sizes>

Times what a new process pays before its first request: importing the
package, parsing the config, the integrand's true mean and the level
partition (of the config's sizes, or of the first design request's).
It then times the reference kernel, so run.py can scale the set-up time
to the kernel's nominal speed.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    _, workload, config, sizes = sys.argv
    sys.path.insert(0, str(Path.cwd() / "src"))
    import slicedlhd.cli  # noqa: F401
    from slicedlhd import SliceSizes, partition_levels
    from slicedlhd.benchmark import ExperimentConfig, true_mean_f1, true_mean_f2

    t_import = time.perf_counter()
    true_mean_s = config_s = 0.0
    if config:
        cfg = ExperimentConfig.from_path(config)
        t_cfg = time.perf_counter()
        (true_mean_f1 if cfg.integrand == "f1" else true_mean_f2)()
        t_mean = time.perf_counter()
        config_s, true_mean_s = t_cfg - t_import, t_mean - t_cfg
    partition_levels(SliceSizes(tuple(int(s) for s in sizes.split(","))))
    end = time.perf_counter()
    import reference  # perfbench/, this script's directory

    ref_s = sorted(reference.kernel_seconds() for _ in range(3))[1]
    print(json.dumps({"workload": workload, "total_s": end - T0, "import_s": t_import - T0,
                      "config_s": config_s, "true_mean_s": true_mean_s, "ref_s": ref_s}))


if __name__ == "__main__":
    main()
