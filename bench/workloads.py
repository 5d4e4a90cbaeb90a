"""Seeded workload generators: each workload turns a seed into one lapmult config.

The program under test receives only the generated config (a JSON document in
the ``lapmult-config-1`` schema); nothing else about the workload reaches it.
The same seed always yields the same bytes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

PRESET = Path(__file__).resolve().parent.parent / "src" / "lapmult" / "presets" / "paper-suite.json"

# "seed", "probe_seed", "field_seed", ... followed by an integer literal
_SEED_FIELD = re.compile(r'("(?:[A-Za-z0-9]+_)*seed"\s*:\s*)(\d+)')


def paper_suite(seed: int) -> str:
    """The bundled preset with its seed fields offset by ``seed``.

    This is the run users make and ROADMAP times end to end.  At seed 0 about
    65% of it is probe ascent (250 calls of 400 probes x 31 steps) and about
    30% is dilation (3508 path tables built, most of them rebuilds: the L log L
    chain shares one path space across 20 fields).  Tables have at most 4^6
    rows, so they fit in L2, and ``decompose`` runs 932 times at n <= 16.
    Probe-ascent and path-engine changes should move this workload.

    Instance families (the suites with ``instances``) keep their own ``seed``:
    it draws each instance's size (n up to 16, path spaces up to 6^7 paths),
    so offsetting it would change the work and the peak memory of the run
    with the seed rather than with the code.  Every other seed field (chains,
    fields, probes, Monte Carlo streams) is offset.

    The substitution is textual and the preset holds one suite per line, so at
    seed 0 the config is byte-identical to the preset that
    ``lapmult run paper-suite`` reads.
    """
    def offset_line(line: str) -> str:
        family = '"instances"' in line

        def offset(m: re.Match) -> str:
            if family and m.group(1).startswith('"seed"'):
                return m.group(0)
            return f"{m.group(1)}{int(m.group(2)) + seed}"

        return _SEED_FIELD.sub(offset, line)

    lines = PRESET.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(offset_line(line) for line in lines)


def _config(description: str, suites: list[dict]) -> str:
    raw = {"schema": "lapmult-config-1", "description": description, "suites": suites}
    return json.dumps(raw, indent=1) + "\n"


# The step family draws each instance's n uniformly from [2, max_n], and eigh
# costs ~n^3, so offsetting the family seed would move the run time of this
# workload by about a quarter from seed to seed.  As in paper_suite, the family
# keeps the preset's seed; the workload seed drives the fixed-size suites.
STEP_FAMILY_SEED = 2024


def spectral_large(seed: int) -> str:
    """Step identity and L2 bound on the step family at max_n 160, plus the
    quadrature-symbol suites at n 128 and 96: the spectral layer at sizes the
    paper suite never reaches, with no probe ascent and no path enumeration.

    It loads spectral, semigroup and multiplier: ``telescoping_Tm`` calls
    ``heat_operator`` twice per piece and each call re-runs ``eigh``, and each
    evaluation of the 24001-point quadrature symbol runs Simpson's rule twice.
    Decomposition caching, an expm oracle and vectorized symbols show here;
    probe-ascent and path-engine changes should not move it.

    ``piece_counts`` runs to 256 because at n = 96 the step-approximation error
    only halves per doubling: with counts up to 64 the final error (0.18) misses
    the 1% tolerance (0.13).
    """
    return _config("spectral layer at large n", [
        {"check": "step_identity", "seed": STEP_FAMILY_SEED, "instances": 50, "max_n": 160,
         "max_pieces": 8, "tol": 1e-10},
        {"check": "l2_bound", "seed": STEP_FAMILY_SEED, "instances": 50, "max_n": 160,
         "max_pieces": 8},
        {"check": "imaginary_powers", "chain": {"seed": 11 + seed, "n": 128},
         "gammas": [0.5, 1.0, 2.0], "t_max": 48.0, "grid": 24001},
        {"check": "step_convergence", "chain": {"seed": 7 + seed, "n": 96}, "field_seed": 5 + seed,
         "multiplier": {"type": "sampled", "name": "exp", "t_max": 4.0, "grid": 513},
         "piece_counts": [4, 8, 16, 32, 64, 128, 256], "rel_tol": 0.01},
    ])


PATH_MC_SUITES = 8


def path_mc(seed: int) -> str:
    """Stratified Monte Carlo against exact enumeration on 4^9-path tables.

    Each suite enumerates 262,144 paths (about 9 MB of int32 indices, more
    than the 4 MiB of L2) and samples 2e5 more, so it stresses both halves of
    the dilation layer at a working-set size the paper suite never reaches:
    the stratified sampler plus the transform evaluator take about 55% and
    exact enumeration most of the rest.  A path-engine change that speeds up
    enumeration but slows sampling, or that only pays off on small tables,
    shows here and not on paper-suite.
    """
    base = PATH_MC_SUITES * seed  # consecutive seeds get disjoint suite seeds
    return _config("path-space Monte Carlo against exact enumeration", [
        {"check": "mc_crosscheck", "seed": base + 17 + i, "n": 4,
         "dilation": {"horizon": 8, "epsilon": 0.8, "mode": "mc", "samples": 200000,
                      "seed": base + 23 + i}}
        for i in range(PATH_MC_SUITES)
    ])


# Why each workload exists is stated in its docstring and, in one line, in
# BENCHMARK.json.
WORKLOADS = {
    "paper-suite": paper_suite,
    "spectral-large": spectral_large,
    "path-mc": path_mc,
}
