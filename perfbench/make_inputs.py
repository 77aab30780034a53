"""Set-up for one workload: write its inputs from the seed.

    python3 perfbench/make_inputs.py <workload> <seed> <out-dir>

Run by run.py as its own process, several times per run, so that set-up time
includes start-up and the amplekit import, as a user's set-up script would.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    workload, seed, out_dir = argv
    sys.path.insert(0, SRC)
    import amplekit
    from workloads import WORKLOADS

    if not os.path.abspath(amplekit.__file__).startswith(SRC + os.sep):
        print(f"error: amplekit imported from {amplekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    WORKLOADS[workload](int(seed)).make_inputs(amplekit, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
