#!/usr/bin/env bash
# Lists the functions under internal/ that no surface executes: it builds
# xbiosip, ptqrs, every example and the bench binary with statement
# coverage of every package of the module (-cover
# -coverpkg=github.com/xbiosip/xbiosip/...), runs them over a fixed set
# of traffic and prints each internal/ function that `go tool covdata
# func` reports at 0.0 %, one per line. The traffic is every xbiosip
# experiment (`all`), the lossy and sharded, TCP, UDP and -policy restart
# serve runs and `-v dse`, all examples, ptqrs over every adder x
# multiplier pair and `bench -workload all -short`. A function on the
# list runs only under test, or on an error path. Run it from the root of
# the checkout (make cover-surfaces); it takes a few minutes and leaves
# nothing behind.
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
export GOCOVERDIR="$tmp/cov"
mkdir -p "$bin" "$GOCOVERDIR"
build() { "$GO" build -cover -coverpkg=github.com/xbiosip/xbiosip/... -o "$@"; }

build "$bin/xbiosip" ./cmd/xbiosip
build "$bin/ptqrs" ./cmd/ptqrs
for d in examples/*/; do
	build "$bin/example-$(basename "$d")" "./$d"
done
(cd bench && build "$bin/bench" .)

x="$bin/xbiosip -records 1 -samples 3000 -seed 3"
{
$x all
$x -v dse
$x -loss 0.1 -burst 0.01 -gwshards 2 serve
$x -net tcp serve
$x -net udp serve
$x -loss 0.2 -burst 0.01 -policy restart serve
for e in "$bin"/example-*; do
	"$e"
done
for a in AccAdd ApproxAdd1 ApproxAdd2 ApproxAdd3 ApproxAdd4 ApproxAdd5; do
	for m in AccMult AppMultV1 AppMultV2; do
		"$bin/ptqrs" -samples 3000 -lsbs 10,12,2,8,16 -adder "$a" -mult "$m"
	done
done
"$bin/bench" -workload all -short -seed 3 -trace 0
} > /dev/null

"$GO" tool covdata func -i="$GOCOVERDIR" | awk '$1 ~ /\/internal\// && $NF == "0.0%" { print $1, $2 }'
