#!/usr/bin/env bash
# costcmp.sh BASE ROUNDS — compare BenchmarkPresetCost (internal/core)
# between git revision BASE and the working tree.
#
# It builds the core package's test binary twice, once from BASE
# (exported with git archive into a temporary directory, so the
# repository's .git is left as it is) and once from the working tree,
# then runs the two alternately ROUNDS times at -benchtime 1x, the
# first binary of a round switching every round so drift on a noisy
# host falls on both sides alike.  It prints, per preset, the median
# ns/renamed of each side, the median over rounds of the paired change
# (working tree over BASE, minus one) and the rounds in which the
# working tree was faster.
#
#	make costcmp BASE=HEAD~1 ROUNDS=10
set -euo pipefail

base=${1:?usage: costcmp.sh BASE ROUNDS}
rounds=${2:?usage: costcmp.sh BASE ROUNDS}
go=${GO:-go}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/base"
git archive "$base" | tar -x -C "$dir/base"
(cd "$dir/base" && "$go" test -c -o "$dir/base.test" ./internal/core)
"$go" test -c -o "$dir/change.test" ./internal/core

# run SIDE ROUND appends "SIDE ROUND PRESET NS" lines, one per preset.
# Each binary runs from its own package directory.
run() {
	local pkg=internal/core
	[ "$1" = base ] && pkg=$dir/base/internal/core
	(cd "$pkg" && "$dir/$1.test" -test.run '^$' -test.bench PresetCost -test.benchtime 1x -test.timeout 30m) |
		awk -v side="$1" -v round="$2" '
			/^BenchmarkPresetCost\// {
				name = $1; sub(/^BenchmarkPresetCost\//, "", name); sub(/-[0-9]+$/, "", name)
				for (i = 2; i < NF; i++) if ($(i + 1) == "ns/renamed") print side, round, name, $i
			}' >> "$dir/runs"
}

for ((r = 1; r <= rounds; r++)); do
	if ((r % 2)); then
		run base "$r"
		run change "$r"
	else
		run change "$r"
		run base "$r"
	fi
done

awk -v base="$base" -v rounds="$rounds" '
	function median(a, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
	}
	!($3 in seen) { seen[$3] = 1; order[++np] = $3 }
	{ ns[$1, $2, $3] = $4 }
	END {
		printf "BenchmarkPresetCost ns/renamed, %s rounds: %s against the working tree\n", rounds, base
		printf "%-10s %10s %10s %9s %7s\n", "preset", "base", "change", "paired", "faster"
		for (k = 1; k <= np; k++) {
			p = order[k]; n = 0; faster = 0
			for (r = 1; r <= rounds; r++) {
				if (!((("base", r, p) in ns) && (("change", r, p) in ns))) continue
				n++
				b[n] = ns["base", r, p]; c[n] = ns["change", r, p]
				d[n] = c[n] / b[n] - 1
				if (c[n] < b[n]) faster++
			}
			printf "%-10s %10.1f %10.1f %+8.1f%% %4d/%d\n", p, median(b, n), median(c, n), 100 * median(d, n), faster, n
		}
	}' "$dir/runs"
