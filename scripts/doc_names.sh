#!/usr/bin/env bash
# Doc-identifier gate: every backticked `pkg.Name` in DESIGN.md and
# README.md whose pkg is a package directory of this module must name a
# non-test declaration in that package, and every backticked `Type.Name`
# must name a method or field a non-test type of that name declares. A
# grep, not a parser. Skipped: tokens that name files (`corpus.index`,
# `fs.sys`), benchmark metrics (bench/metrics.go) and packages outside
# the module (`sync.Pool`).
#
# Usage: scripts/doc_names.sh   (from anywhere; exits 1 on a stale name)
set -euo pipefail
cd "$(dirname "$0")/.."

module=$(awk '$1 == "module" { print $2; exit }' go.mod)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Declarations, one per line: "D pkg" for every package directory,
# "P pkg.Name" for package-level names, "M Type.Name" for methods,
# fields and interface methods.
git ls-files --cached --others --exclude-standard -- '*.go' |
	grep -v -e '_test\.go$' -e '/testdata/' |
	xargs awk -v module="$module" '
		FNR == 1 {
			dir = FILENAME
			if (sub(/\/[^\/]*$/, "", dir) == 0) dir = "."
			pkg = dir
			sub(/.*\//, "", pkg)
			if (dir == ".") pkg = module
			print "D " pkg
			block = ""; owner = ""
		}
		/^\)/ { block = "" }
		/^\}/ { owner = "" }
		(block != "" || owner != "") && match($0, /^\t[A-Za-z_][A-Za-z0-9_]*/) {
			name = substr($0, 2, RLENGTH - 1)
			if (owner != "") print "M " owner "." name
			else print "P " pkg "." name
		}
		/^(const|var|type) \($/ { block = $1 }
		/^type [A-Za-z_][A-Za-z0-9_]*(\[.*\])? (struct|interface) \{$/ {
			owner = $2
			sub(/\[.*/, "", owner)
		}
		match($0, /^(func|type|var|const) [A-Za-z_][A-Za-z0-9_]*/) {
			name = substr($0, 1, RLENGTH)
			sub(/^[a-z]+ /, "", name)
			print "P " pkg "." name
		}
		match($0, /^func \([^)]*\) [A-Za-z_][A-Za-z0-9_]*/) {
			decl = substr($0, 1, RLENGTH)
			name = decl
			sub(/.*\) /, "", name)
			recv = decl
			sub(/^func \(/, "", recv)
			sub(/\).*/, "", recv)
			sub(/.* /, "", recv)
			sub(/^\*/, "", recv)
			sub(/\[.*/, "", recv)
			print "M " recv "." name
		}
	' | sort -u >"$tmp/decls"

grep -ohE '`[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*`' DESIGN.md README.md |
	tr -d '`' | sort -u >"$tmp/tokens"

pkgs=0 types=0 outside=0 stale=0
while read -r tok; do
	qual=${tok%%.*}
	name=${tok#*.}
	case $name in
	md | go | json | sarif | sh | yml | sys | index | intern | tsc4 | txt | html | dot) continue ;;
	esac
	if grep -qF "\"$tok\"" bench/metrics.go; then
		continue
	fi
	case $qual in
	[A-Z]*)
		if grep -qxF "M $tok" "$tmp/decls"; then
			types=$((types + 1))
		else
			echo "doc-names: \`$tok\` names no method or field of a type $qual" >&2
			stale=$((stale + 1))
		fi
		;;
	*)
		if ! grep -qxF "D $qual" "$tmp/decls"; then
			outside=$((outside + 1))
		elif grep -qxF "P $tok" "$tmp/decls"; then
			pkgs=$((pkgs + 1))
		else
			echo "doc-names: \`$tok\` names nothing declared in package $qual" >&2
			stale=$((stale + 1))
		fi
		;;
	esac
done <"$tmp/tokens"

echo "doc-names: $pkgs package-qualified and $types Type.Name tokens resolve; $outside outside the module skipped"
if [ "$stale" -gt 0 ]; then
	echo "doc-names: $stale stale name(s) in DESIGN.md / README.md" >&2
	exit 1
fi
