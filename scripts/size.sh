#!/usr/bin/env bash
# size.sh [BASE] — non-test, non-blank, non-comment Go lines per package
# directory and in total, outside bench/ and testdata/.
#
# Without BASE it counts the working tree, over the files git tracks or
# would track (so ignored build output such as .bench_build/ never
# counts).  With BASE, a git revision, it also counts BASE, exported
# with git archive into a temporary directory (so the repository's .git
# is left as it is), and prints both counts per package and the change.
# Both counts go through the one count function below.
#
#	make size
#	make sizecmp BASE=HEAD~1
set -euo pipefail

# count reads Go file paths, relative to the current directory, on
# stdin and prints "DIR LINES" for each package directory.
count() {
	grep -Ev -e '_test\.go$' -e '^bench/' -e '(^|/)testdata/' |
		awk '{
			f = $0; d = f; if (!sub(/\/[^\/]*$/, "", d)) d = "."
			while ((getline line < f) > 0) {
				sub(/^[ \t]+/, "", line)
				if (line != "" && line !~ /^\/\//) n[d]++
			}
			close(f)
		}
		END { for (d in n) print d, n[d] }' |
		sort -k1,1
}

if [ $# -eq 0 ]; then
	git ls-files -co --exclude-standard -- '*.go' | count |
		awk '{ printf "%7d  %s\n", $2, $1; total += $2 } END { printf "%7d  total\n", total }'
	exit 0
fi

base=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/base"
git archive "$base" | tar -x -C "$dir/base"
(cd "$dir/base" && find . -name '*.go' | sed 's|^\./||' | count) > "$dir/base.n"
git ls-files -co --exclude-standard -- '*.go' | count > "$dir/change.n"

awk 'FNR == NR { b[$1] = $2; next } { c[$1] = $2 }
	END { for (d in b) c[d] += 0; for (d in c) print d, b[d] + 0, c[d] }' "$dir/base.n" "$dir/change.n" |
	sort -k1,1 |
	awk -v base="$base" '
		BEGIN { printf "make size: %s against the working tree\n%7s %7s %7s  %s\n", base, "base", "change", "delta", "package" }
		{ printf "%7d %7d %+7d  %s\n", $2, $3, $3 - $2, $1; tb += $2; tc += $3 }
		END { printf "%7d %7d %+7d  total\n", tb, tc, tc - tb }'
