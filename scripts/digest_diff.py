#!/usr/bin/env python3
"""Compare two value_digest.py outputs: changed lines and the largest relative move.

    python3 scripts/digest_diff.py old.txt new.txt

Lines pair up by position and must carry the same labels.  Within a
line, the numbers of the two values are compared one by one when both
hold as many; the text around them (field names, types, error names, and
quoted strings such as array hashes) is compared exactly, and a line
whose text differs counts as a text change.  A number's relative move
is |x - y| / max(|x|, |y|), and +inf against a finite number moves by
inf.  Prints the count of changed lines, the text changes by label, and
the largest relative move with its label.  A line's first number is its
value; for a lower bound a fall is what matters, so the count of lines
whose first number fell and the largest relative fall with its label
follow.
"""

import math
import re
import sys

#: a number that is not part of a name or of a longer token
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")


def split(value: str) -> tuple[str, list[float]]:
    """(text with every number outside quotes replaced by #, the numbers)."""
    text, numbers, at = [], [], 0
    for quoted in list(QUOTED.finditer(value)) + [None]:
        end = quoted.start() if quoted else len(value)
        part = value[at:end]
        numbers += [float(m) for m in NUMBER.findall(part)]
        text.append(NUMBER.sub("#", part))
        if quoted:
            text.append(quoted.group())
            at = quoted.end()
    return "".join(text), numbers


def relative_move(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[1]) as f_old, open(argv[2]) as f_new:
        old, new = f_old.read().splitlines(), f_new.read().splitlines()
    if len(old) != len(new):
        print(f"error: {len(old)} lines against {len(new)}", file=sys.stderr)
        return 1
    changed, text_changes, worst, worst_label = 0, [], 0.0, None
    fell, worst_fall, fall_label = 0, 0.0, None
    for line_old, line_new in zip(old, new):
        if line_old == line_new:
            continue
        changed += 1
        label, _, value_old = line_old.partition(": ")
        label_new, _, value_new = line_new.partition(": ")
        if label != label_new:
            print(f"error: label {label!r} against {label_new!r}", file=sys.stderr)
            return 1
        (text_old, nums_old), (text_new, nums_new) = split(value_old), split(value_new)
        if text_old != text_new:
            text_changes.append(label)
        if len(nums_old) == len(nums_new) and nums_old:
            move = max(relative_move(x, y) for x, y in zip(nums_old, nums_new))
            if move > worst or worst_label is None:
                worst, worst_label = move, label
        if nums_old and nums_new and nums_new[0] < nums_old[0]:
            fell += 1
            fall = relative_move(nums_old[0], nums_new[0])
            if fall > worst_fall or fall_label is None:
                worst_fall, fall_label = fall, label
    print(f"changed lines: {changed} of {len(old)}")
    print(f"text changes: {len(text_changes)}")
    for label in text_changes:
        print(f"  {label}")
    if worst_label is None:
        print("largest relative move: none")
    else:
        print(f"largest relative move: {worst:.3g} at {worst_label}")
    print(f"first number fell: {fell} lines")
    if fall_label is None:
        print("largest relative fall: none")
    else:
        print(f"largest relative fall: {worst_fall:.3g} at {fall_label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
