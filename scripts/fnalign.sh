#!/usr/bin/env bash
# Reports which functions of the hot packages moved their address mod 64
# between the ebiload benchmark binary built from BASE_REV and the one
# built from the working tree. Run it from the root of a checkout:
#
#   bash scripts/fnalign.sh BASE_REV        # or: make fnalign BASE=BASE_REV
#
# Go aligns functions to 32 bytes only, so a size change in one package can
# shift another package's kernel by half a cache line and move a benchmark
# with no code change in it. The report prints, per package, how many
# functions changed their address mod 64, then lists each moved boolmin,
# bitvec and compress function with its old and new offset. It is a report,
# not a gate: once both binaries build it exits 0.
#
# Both builds use bench/run.sh's environment (the local toolchain, no
# module fetch, caches in .bench_build/). BASE_REV is checked out in a
# temporary git worktree under .bench_build/, removed on exit.
set -euo pipefail

base=${1:?usage: scripts/fnalign.sh BASE_REV}
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

wt="$out/fnalign-worktree"
git worktree remove --force "$wt" 2>/dev/null || true
git worktree add --quiet --detach "$wt" "$base"
trap 'git worktree remove --force "$wt"' EXIT

(cd "$wt/bench" && go build -buildvcs=false -o "$out/fnalign-base" .)
(cd "$root/bench" && go build -buildvcs=false -o "$out/fnalign-head" .)
go tool nm -size -sort address "$out/fnalign-base" >"$out/fnalign-base.nm"
go tool nm -size -sort address "$out/fnalign-head" >"$out/fnalign-head.nm"

echo "function alignment, $(git rev-parse --short "$base") -> working tree (address mod 64)"
awk -v pkgs="boolmin bitvec compress parallel core simplebitmap reorder bsi" -v listed="boolmin bitvec compress" '
function mod64(addr,   i, v) {
	v = 0
	addr = tolower(addr)
	for (i = 1; i <= length(addr); i++)
		v = (v * 16 + index("0123456789abcdef", substr(addr, i, 1)) - 1) % 64
	return v
}
# Text symbols of repro/internal/<pkg>; the package is the name up to the
# first dot after that prefix.
$3 ~ /^[Tt]$/ && $4 ~ /^repro\/internal\// {
	name = $4
	pkg = substr(name, length("repro/internal/") + 1)
	pkg = substr(pkg, 1, index(pkg, ".") - 1)
	if (FILENAME == ARGV[1]) {
		if (!(name in old)) { old[name] = mod64($1); oldpkg[name] = pkg }
	} else if (!(name in cur)) {
		cur[name] = mod64($1); curpkg[name] = pkg; order[++n] = name
	}
}
END {
	np = split(pkgs, p, " ")
	for (i = 1; i <= np; i++) want[p[i]] = 1
	split(listed, l, " ")
	for (i in l) list[l[i]] = 1
	for (name in old) if (!(name in cur)) gone[oldpkg[name]]++
	for (j = 1; j <= n; j++) {
		name = order[j]; pkg = curpkg[name]
		if (!(name in old)) { added[pkg]++; continue }
		common[pkg]++
		if (old[name] != cur[name]) {
			moved[pkg]++
			if (pkg in list) lines[++m] = sprintf("  %-12s %-60s %2d -> %2d", pkg, substr(name, length("repro/internal/") + 1), old[name], cur[name])
		}
	}
	printf "%-14s %7s %7s %7s %7s\n", "package", "common", "moved", "removed", "added"
	for (i = 1; i <= np; i++)
		printf "%-14s %7d %7d %7d %7d\n", p[i], common[p[i]], moved[p[i]], gone[p[i]], added[p[i]]
	printf "\nmoved %s functions (offset mod 64, base -> head):\n", listed
	if (m == 0) print "  none"
	for (i = 1; i <= m; i++) print lines[i]
}' "$out/fnalign-base.nm" "$out/fnalign-head.nm"
