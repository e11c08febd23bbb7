"""Gate a remix_long benchmark run on its accuracy.

Reads the last two lines of `perfbench/run.py --workload remix_long` from
stdin: the report, whose "quality" block holds the accuracy of every clip
in the pool, and the result.  Exits 0 when the result reads "correct":
true with no failed op and every quality figure is inside its bound, else
1, printing the figures that are not:

    python3 perfbench/run.py --workload remix_long --seed 1 --seconds 5 --trace 0 \\
        | tail -n 2 | python3 scripts/check_remix_accuracy.py

The figures are both beat grids' worst downbeat and tempo error, the
worst remixed downbeat click, and the pooled share of chroma frames whose
recognised chord is right.  25 ms is criterion 7's bound.
"""

import json
import sys

UPPER_BOUNDS = {"downbeat_err_ms.max": 25.0, "remix_click_err_ms.max": 25.0, "bpm_err.max": 0.05}
LEAST_CHORD_ACC = 0.99


def main() -> int:
    report, result = (json.loads(line) for line in sys.stdin)
    quality = {name: figure["value"] for name, figure in report["quality"].items()}
    over = {
        name: quality[name] for name, bound in UPPER_BOUNDS.items() if not quality[name] <= bound
    }
    if not quality["chord_acc"] >= LEAST_CHORD_ACC:
        over["chord_acc"] = quality["chord_acc"]
    if over:
        print("outside its bound:", over)
    return 0 if result["correct"] is True and result["failed"] == 0 and not over else 1


if __name__ == "__main__":
    sys.exit(main())
