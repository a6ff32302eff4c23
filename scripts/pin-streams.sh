#!/bin/sh
# pin-streams.sh prints one SHA-256 digest per puschd output stream for a
# fixed set of layout-bearing runs: sequential, stock and explicit
# pipelined layouts on MemPool, the stock TeraPool layout, a 2-cell fleet
# whose cells use different splits, a pipelined -trace-out -> -in
# replay and a -cache-file save and warm start. Compare the output across a refactor
# that must not move a byte:
#
#	scripts/pin-streams.sh | cmp - scripts/pin-streams.sha256
#
# Run it from the repository root; it builds puschd into a temporary
# directory and removes it on exit.
set -eu
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/puschd" ./cmd/puschd
d="$tmp/puschd -gen mix -jobs 6 -workers 1"

pin() {
	name=$1
	shift
	"$@" >"$tmp/out" 2>/dev/null
	printf '%s  %s\n' "$(sha256sum <"$tmp/out" | cut -d' ' -f1)" "$name"
}

pin mempool-sequential $d -layout sequential
pin mempool-pipe $d -layout pipe
pin mempool-f64-b32-d64 $d -layout pipe/f64/b32/d64
pin terapool-pipe $d -jobs 2 -cluster terapool -layout pipe

printf '[{"name":"a","layout":"pipe/f64/b32/d64"},{"name":"b","layout":"pipe/f128/b64/d64"}]\n' >"$tmp/cells.json"
pin fleet-two-splits $d -cells 2 -cell-config "$tmp/cells.json"

pin trace-out $d -layout pipe/f64/b32/d64 -trace-out "$tmp/trace.jsonl"
pin trace-file cat "$tmp/trace.jsonl"
pin trace-replay "$tmp/puschd" -workers 1 -in "$tmp/trace.jsonl"

pin cache-serve $d -layout pipe -cache-file "$tmp/cache.jsonl"
pin cache-file cat "$tmp/cache.jsonl"
pin cache-warm $d -layout pipe -cache-file "$tmp/cache.jsonl"
