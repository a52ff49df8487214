#!/usr/bin/env python3
"""Run every bundled config through the CLI and print a digest per artifact.

Usage: python scripts/artifact_digests.py DIR [--expect LISTING]

Each (config, subcommand) pair of RUNS writes into DIR/<config>/<subcommand>.
Every report and CSV is then listed as one ``sha256  path`` line, with paths
relative to DIR; manifests are skipped, since they hold wall times.  No
command writes a pathwise backward-equation residual, so each of RESIDUALS
is computed on the equilibrium its run saved and listed as the digest of
its ``repr``, under
``<config>/<subcommand>/residual_player<i>_step<h>_paths<n>_horizon<T>``.  The
library is imported from the ``src`` directory of the checkout holding this
script, so running a copy of it in two checkouts and diffing the two
listings shows whether a change kept every artifact byte-identical.  With
``--expect LISTING``, a listing saved from an earlier run, the script also
compares the two and exits 1, naming on standard error each path whose
digest differs, is missing or is new.

``scripts/artifact_digests.txt`` is the listing of the current code, so

    python3 scripts/artifact_digests.py DIR --expect scripts/artifact_digests.txt

is the one-command check that a change kept every artifact byte-identical.  A
change that moves an artifact on purpose updates that file, so its diff names
the moved digests.
"""

import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from ergodic_games import bsde_path_residual, cli  # noqa: E402

CONFIGS = REPO / "configs"

RUNS = (
    ("ebsde_bump", "solve-ebsde"),
    ("continuous_sqrt", "continuous-ebsde"),
    ("g0", "solve-game"),
    ("g0", "verify-nash"),
    ("g0", "simulate"),
    ("g0", "check-assumptions"),
    ("g0_coupled", "solve-game"),
    # its player-0 cost reads player 1, so the search has no column classes there
    ("g0_coupled", "check-assumptions"),
    ("g0_asymmetric", "asymmetric"),
    ("g0_asymmetric", "verify-nash"),
    ("discount_sweep", "discount-sweep"),
    ("three_player", "solve-game"),
    ("three_player", "check-assumptions"),
)

# (config, subcommand whose saved equilibrium is checked, player, step, paths,
# horizon); the residual uses the config's seed
RESIDUALS = (
    ("g0", "solve-game", 0, 0.02, 64, 50.0),
    ("g0", "solve-game", 0, 0.01, 64, 50.0),
    ("g0_asymmetric", "asymmetric", 1, 0.02, 64, 50.0),
    # 1,000 keys of one seed over 1,000 steps: on two CPUs, two workers of 8 bands each
    ("g0", "solve-game", 0, 0.02, 1000, 20.0),
)


def differences(listing: list, expected: list) -> list:
    """``differs: path``, ``missing: path`` or ``new: path`` for each path of the
    ``sha256  path`` lines of ``listing`` whose digest is not the one in ``expected``."""
    fresh, saved = ({path: digest for digest, path in (line.split("  ", 1) for line in lines)}
                    for lines in (listing, expected))
    found = []
    for path in sorted(fresh.keys() | saved.keys()):
        if path not in fresh:
            found.append(f"missing: {path}")
        elif path not in saved:
            found.append(f"new: {path}")
        elif fresh[path] != saved[path]:
            found.append(f"differs: {path}")
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 3) or argv[1:2] not in ([], ["--expect"]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    root = Path(argv[0])
    expected = Path(argv[2]).read_text().splitlines() if len(argv) == 3 else None
    listing = []
    missing = {p.stem for p in CONFIGS.glob("*.yaml")} - {name for name, _ in RUNS}
    if missing:
        print(f"configs without a run: {', '.join(sorted(missing))}", file=sys.stderr)
        return 1
    failed = False
    for name, command in RUNS:
        out = root / name / command
        rc = cli.main([command, "--config", str(CONFIGS / f"{name}.yaml"),
                       "--out", str(out), "--quiet"])
        if rc != 0:
            print(f"{name} {command}: exit code {rc}", file=sys.stderr)
            failed = True
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                listing.append(f"{digest}  {path.relative_to(root)}")
                print(listing[-1])
    for name, command, player, step, n_paths, horizon in RESIDUALS:
        if (name, command) not in RUNS:
            continue
        cfg = cli.load_config(CONFIGS / f"{name}.yaml")
        value = bsde_path_residual(cli.make_model(cfg["model"] or {}), cli.make_game(cfg["game"]),
                                   cli.load_nash(root / name / command), player=player,
                                   horizon=horizon, step=step, n_paths=n_paths,
                                   seed=cfg.get("seed", 0))
        digest = hashlib.sha256(repr(value).encode()).hexdigest()
        listing.append(f"{digest}  {name}/{command}/residual_player{player}_step{step}"
                       f"_paths{n_paths}_horizon{horizon}")
        print(listing[-1])
    if expected is not None:
        for line in differences(listing, expected):
            print(line, file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
