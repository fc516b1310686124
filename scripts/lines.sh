#!/usr/bin/env bash
# Non-test source lines — the figure ROADMAP tracks ("net line count is a
# tracked outcome") — at a base commit and at the working tree, with the delta.
# A file's non-test lines are everything before its first `#[cfg(test)]` (the
# whole file if it has none); comments and blank lines count, so moving code
# into a test module shows as a reduction and reformatting does not hide one.
#
#   scripts/lines.sh [-b base=HEAD~1] [paths…]
#
# Paths are files or directories (default: crates/*/src); every *.rs under
# them is counted. Prints one row per file whose count changed (every file
# when paths were given), one per crate, and the total.
set -euo pipefail

base=HEAD~1
if [ "${1:-}" = -b ]; then
    base=${2:?usage: scripts/lines.sh [-b base] [paths…]}
    shift 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$base^{commit}")
all=$#
if [ $# -eq 0 ]; then
    set -- crates/*/src
fi

# Reads its input to the end: an early exit would SIGPIPE the `git show` feeding it.
count() { awk '/#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'; }

{
    git ls-tree -r --name-only "$sha" -- "$@"
    find "$@" -type f -name '*.rs'
} | grep '\.rs$' | sort -u | while read -r f; do
    was=$(git show "$sha:$f" 2>/dev/null | count)
    now=$([ -f "$f" ] && count <"$f" || echo 0)
    printf '%s\t%s\t%s\n' "$f" "$was" "$now"
done | awk -F'\t' -v all="$all" -v sha="${sha:0:12}" '
    function row(name, was, now) { printf "%-44s %7d %7d %+7d\n", name, was, now, now - was }
    BEGIN { printf "%-44s %7s %7s %7s\n", "non-test lines", sha, "tree", "delta" }
    {
        crate = (split($1, part, "/") > 2 && part[1] == "crates") ? "crates/" part[2] "/" : "(other)"
        if (!(crate in cw)) order[++crates] = crate
        cw[crate] += $2; cn[crate] += $3; tw += $2; tn += $3
        if (all || $2 != $3) row($1, $2, $3)
    }
    END {
        for (i = 1; i <= crates; i++) row(order[i], cw[order[i]], cn[order[i]])
        row("total", tw, tn)
    }'
