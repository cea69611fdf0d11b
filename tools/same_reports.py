"""Compare the report bytes of two source trees on the fixed sweeps.

Usage: python tools/same_reports.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  Each sweep runs once
in each tree, as `python -m rkksums.cli` in a fresh interpreter with that
tree's src/ on PYTHONPATH, PYTHONDONTWRITEBYTECODE=1 and PYTHONHASHSEED=0.
One line per sweep gives the sha256 of its standard output and its exit
code in both trees.  The exit status is 1 when any sweep differs in either,
else 0.  Standard error is not compared: it holds the run's wall time.
"""

import hashlib
import os
import subprocess
import sys

PER_POINT = ("rkksuk,rkksuk_short,rkk,rkksuk_z,rkksuk_long,lemma_technical,mystery,"
             "rkksukk,rkksukmod2,rkkmod2,rkkmod2_var")
R_1_TO_6 = ("--r", "1,2,3,4,5,6")

# name -> CLI arguments
SWEEPS = {
    "default_csv": (*R_1_TO_6, "--primes", "7..150", "--x-random", "3", "--format", "csv"),
    "default_json": (*R_1_TO_6, "--primes", "7..150", "--x-random", "3", "--format", "json"),
    # both sides of theorems.SEQUENCE_BOUND (128)
    "per_point_127_320": ("--theorems", PER_POINT, *R_1_TO_6, "--primes", "127..320",
                          "--x-random", "2", "--x", "2,-1/3", "--format", "csv"),
    "large_p_10000_10060": ("--theorems", "mystery,lemma_technical,rkkmod2,rkkmod2_var,rkk",
                            "--r", "2,3,4,5,6", "--primes", "10000..10060", "--x-random", "1",
                            "--format", "csv"),
    "cor_split_5_400": ("--theorems", "cor_split", *R_1_TO_6, "--primes", "5..400",
                        "--format", "csv"),
    "numerics_1009_1447": ("--theorems", "numerics", "--primes", "1009,1447", "--format", "csv"),
    "fe_r3_beta_central_pol": ("--theorems", "fe,r3_beta,central_pol", "--r", "2,3",
                               "--primes", "5..300", "--x-random", "4", "--format", "csv"),
}


def run_sweep(tree, args):
    """(sha256 of standard output, exit code) of one CLI run in tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-m", "rkksums.cli", *args], cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    return hashlib.sha256(done.stdout).hexdigest(), done.returncode


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(tree) for tree in argv)
    differ = False
    for name, args in SWEEPS.items():
        before, after = run_sweep(parent, args), run_sweep(change, args)
        same = before == after
        differ |= not same
        print(f"{name:24} parent {before[0]} exit {before[1]}  "
              f"change {after[0]} exit {after[1]}  {'same' if same else 'DIFFERENT'}",
              flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
