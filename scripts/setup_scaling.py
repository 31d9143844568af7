"""Time the set-up of the large-scale plant as it grows.

For plants of 8 to 512 turbines (strings of eight behind the park
transformer, built by ``build_large_scale``) prints the best of three
wall-clock times, in ms, of ``instantiate``, of ``Master.initialize``,
of their sum (set-up), of the power flow alone on the same network
and admittance matrix, and of 100 macro steps right after
``initialize``.  BLAS runs on one thread.

    python3 scripts/setup_scaling.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"     # before NumPy loads BLAS

import time  # noqa: E402

from windcosim.collector import WppLayout  # noqa: E402
from windcosim.powerflow import solve_power_flow  # noqa: E402
from windcosim.scenario import build_large_scale, instantiate  # noqa: E402

TURBINES = (8, 32, 128, 256, 512)
REPS = 3
STEPS = 100


def _ms(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return 1e3 * (time.perf_counter() - t0), out


def time_setup(n_turbines: int) -> dict[str, float]:
    sc = build_large_scale(t_end=0.0, layout=WppLayout(n_strings=n_turbines // 8,
                                                        turbines_per_string=8))
    setpoints = {w.id: (w.p_ref, w.q_ref) for w in sc.wtgs}
    best = {"instantiate": float("inf"), "initialize": float("inf"),
            "setup": float("inf"), "power_flow": float("inf"), "steps": float("inf")}
    for _ in range(REPS):
        t_inst, master = _ms(lambda: instantiate(sc))
        t_init, _ = _ms(master.initialize)
        t_steps, _ = _ms(lambda: [master.step_macro() for _ in range(STEPS)])
        ybus = master.component("grid").model.ybus
        t_pf, _ = _ms(lambda: solve_power_flow(sc.network, ybus, setpoints))
        for key, t in (("instantiate", t_inst), ("initialize", t_init),
                       ("setup", t_inst + t_init), ("power_flow", t_pf), ("steps", t_steps)):
            best[key] = min(best[key], t)
    best["buses"] = len(sc.network.buses)
    return best


def main() -> None:
    print("| turbines | buses | instantiate ms | initialize ms | set-up ms | power flow ms "
          f"| {STEPS} steps ms |")
    print("|---:|---:|---:|---:|---:|---:|---:|")
    for n in TURBINES:
        r = time_setup(n)
        print(f"| {n} | {r['buses']} | {r['instantiate']:.1f} | {r['initialize']:.1f} "
              f"| {r['setup']:.1f} | {r['power_flow']:.1f} | {r['steps']:.1f} |", flush=True)


if __name__ == "__main__":
    main()
