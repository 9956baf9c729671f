#!/usr/bin/env bash
# Judge a change's wall-clock against a base revision in alternating
# pairs of end-to-end benchmark runs.
#
#   scripts/ab.sh <rev> <workload> [pairs] [seconds] [first-seed]
#
# Builds the e2ebench of <rev> offline in target/ab/<sha>/ and the one of
# the working tree, then runs the two builds alternately on <workload>
# with tracing off: `pairs` pairs (default 10) of `seconds`-long runs
# (default: `run_seconds` of BENCHMARK.json). The order flips every pair
# and each pair gets a fresh seed, counting up from `first-seed`
# (default: derived from the clock, and printed).
#
# For every end-to-end metric of BENCHMARK.json it prints the base's
# median and quartiles, the change's median, the pairs the change won
# (ties count for neither) and a verdict:
#   gain        the change won at least 9 of 10 pairs, its median is
#               better than the base's by more than the base's
#               interquartile range, and it failed no larger share of
#               its operations than the base;
#   WORSE       the change's median is worse than the base's by more
#               than the metric's bound;
#   unresolved  neither, and the base's own interquartile range is wider
#               than the bound, so "no worse" cannot be told from noise;
#   same        otherwise.
# Under the table it prints each arm's median host noise: the e2ebench
# host probe (ms for a fixed simulator run when the run ended) and the
# steal time the run saw (jiffies). Raw values, these included, go to
# target/ab/<workload>-<sha>-<first-seed>.tsv. A run that fails stops
# the script and prints the tail of its stderr.
#
# <rev> is extracted with `git archive` rather than checked out as a
# worktree: an extracted tree is a plain directory, and leaves nothing
# registered in the repository if the script is interrupted.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <rev> <workload> [pairs] [seconds] [first-seed]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 5 ] || usage
root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$root/BENCHMARK.json")}"
seed="${5:-$(( $(date +%s) % 100000 * 10 ))}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: pairs must be a positive integer" >&2; usage; }
[[ "$seed" =~ ^[0-9]+$ ]] || { echo "ab.sh: first-seed must be a number" >&2; usage; }
sha="$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}")" \
    || { echo "ab.sh: unknown revision $rev" >&2; exit 2; }

base="$root/target/ab/$sha"
if [ ! -f "$base/e2ebench/Cargo.toml" ]; then
    echo "==> extracting $rev ($sha) into target/ab/$sha" >&2
    mkdir -p "$base"
    git -C "$root" archive --format=tar "$sha" | tar -x -C "$base"
fi
echo "==> building e2ebench of $rev and of the working tree" >&2
cargo build --offline --release --quiet --manifest-path "$base/e2ebench/Cargo.toml"
cargo build --offline --release --quiet --manifest-path "$root/e2ebench/Cargo.toml"
bin_base="$base/e2ebench/target/release/e2ebench"
bin_change="$root/e2ebench/target/release/e2ebench"

raw="$root/target/ab/$workload-${sha:0:12}-$seed.tsv"
: > "$raw"
errlog="$(mktemp)"
trap 'rm -f "$errlog"' EXIT

# One untraced run; appends "pair arm metric value" lines, with the
# failed and attempted op counts and the host-noise record (from the
# line before the result) as more metrics.
run() {
    local pair="$1" arm="$2" bin="$3" s="$4" out
    if ! out="$("$bin" --workload "$workload" --seed "$s" --seconds "$seconds" --trace 0 2>"$errlog")"; then
        echo "ab.sh: $arm run of pair $pair (seed $s) failed; the tail of its stderr:" >&2
        tail -n 20 "$errlog" >&2
        exit 1
    fi
    printf '%s\n' "$out" | tail -n 2 | head -n 1 | awk -v pair="$pair" -v arm="$arm" '{
        for (i = 1; i <= NF; i++) {
            split($i, kv, "=")
            if ((kv[1] == "host_probe_ms" || kv[1] == "steal_jiffies") && kv[2] ~ /^[0-9.]+$/) print pair, arm, kv[1], kv[2]
        }
    }' >> "$raw"
    printf '%s\n' "$out" | tail -n 1 | awk -v pair="$pair" -v arm="$arm" '{
        if ($0 !~ /"correct":true/) print "ab.sh: " arm " run of pair " pair " is not correct" > "/dev/stderr"
        line = $0
        while (match(line, /"[a-z0-9_]+":\{"value":[-0-9.eE+]+/)) {
            m = substr(line, RSTART + 1, RLENGTH - 1)
            split(m, kv, /":\{"value":/)
            print pair, arm, kv[1], kv[2]
            line = substr(line, RSTART + RLENGTH)
        }
        if (match($0, /"attempted":[0-9]+/)) print pair, arm, "attempted", substr($0, RSTART + 12, RLENGTH - 12)
        if (match($0, /"failed":[0-9]+/)) print pair, arm, "failed", substr($0, RSTART + 9, RLENGTH - 9)
    }' >> "$raw"
}

echo "==> $pairs pairs of $workload, $seconds s each, seeds $seed..$((seed + pairs - 1))" >&2
for ((i = 0; i < pairs; i++)); do
    s=$((seed + i))
    if ((i % 2 == 0)); then
        run "$i" base "$bin_base" "$s"
        run "$i" change "$bin_change" "$s"
    else
        run "$i" change "$bin_change" "$s"
        run "$i" base "$bin_base" "$s"
    fi
    echo "    pair $((i + 1))/$pairs done" >&2
done

# The metric table: direction and bound of every end-to-end metric, in
# the order BENCHMARK.json lists them.
spec="$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ {
        name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
        better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
        bound = $0; sub(/.*"bound": *"?/, "", bound); sub(/[^0-9.].*/, "", bound)
        print name, better, bound
    }' "$root/BENCHMARK.json")"

echo "ab.sh: $workload, $pairs pairs of ${seconds} s, seeds $seed..$((seed + pairs - 1)); base $rev (${sha:0:12}), change = working tree"
printf '%s\n' "$spec" | awk -v raw="$raw" -v pairs="$pairs" '
    # Quantile of the sorted a[1..n], linear between order statistics.
    function q(a, n, p,    h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function sorted(arm, m, out,    n, i, j, t) {
        n = 0
        for (i = 0; i < pairs; i++) if ((i, arm, m) in v) out[++n] = v[i, arm, m]
        for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
        return n
    }
    BEGIN {
        while ((getline line < raw) > 0) { split(line, f, " "); v[f[1], f[2], f[3]] = f[4] }
        for (i = 0; i < pairs; i++) {
            att["base"] += v[i, "base", "attempted"]; fl["base"] += v[i, "base", "failed"]
            att["change"] += v[i, "change", "attempted"]; fl["change"] += v[i, "change", "failed"]
        }
        share_base = att["base"] ? fl["base"] / att["base"] : 0
        share_change = att["change"] ? fl["change"] / att["change"] : 0
        printf "%-18s %12s %12s %12s %12s %7s  %s\n", "metric", "base_p50", "base_q1", "base_q3", "change_p50", "won", "verdict"
    }
    {
        m = $1; lower = ($2 == "lower"); bound = $3 + 0
        nb = sorted("base", m, b); nc = sorted("change", m, c)
        if (nb == 0 || nc == 0) next
        mb = q(b, nb, 0.5); mc = q(c, nc, 0.5); q1 = q(b, nb, 0.25); q3 = q(b, nb, 0.75)
        won = 0; allbetter = 1
        for (i = 0; i < pairs; i++) {
            if (!((i, "base", m) in v) || !((i, "change", m) in v)) continue
            x = v[i, "change", m]; y = v[i, "base", m]
            if (lower ? x < y : x > y) won++
        }
        for (i = 1; i <= nc; i++) for (j = 1; j <= nb; j++) if (lower ? c[i] >= b[j] : c[i] <= b[j]) allbetter = 0
        gain = lower ? mb - mc : mc - mb
        worse = mb == 0 ? 0 : -gain / (mb < 0 ? -mb : mb)
        if (won * 10 >= 9 * pairs && gain > q3 - q1 && share_change <= share_base) verdict = "gain"
        else if (worse > bound) verdict = "WORSE (" sprintf("%+.1f%%", 100 * worse) " > bound " bound ")"
        else if (mb != 0 && (q3 - q1) / (mb < 0 ? -mb : mb) > bound && !allbetter) verdict = "unresolved"
        else verdict = "same"
        printf "%-18s %12.6g %12.6g %12.6g %12.6g %3d/%-3d  %s\n", m, mb, q1, q3, mc, won, pairs, verdict
    }
    END {
        split("host_probe_ms steal_jiffies", noise, " ")
        for (k = 1; k <= 2; k++) {
            nb = sorted("base", noise[k], b); nc = sorted("change", noise[k], c)
            if (nb && nc) printf "%s median: base %g, change %g\n", noise[k], q(b, nb, 0.5), q(c, nc, 0.5)
        }
        printf "base: %d ops attempted, %d failed\n", att["base"], fl["base"]
        printf "change: %d ops attempted, %d failed\n", att["change"], fl["change"]
        if (share_change > share_base) print "WORSE: the change failed a larger share of its operations than the base"
        print "raw runs: " raw
    }'
