#!/bin/sh
# Builds the benchmark inside bench/ and runs it with the given arguments.
# The Go build cache, temporary files, module path and telemetry directory
# are all pointed into bench/.build/, so nothing is written outside the
# checkout.
set -e
cd "$(dirname "$0")"
mkdir -p .build/tmp
export GOCACHE="$PWD/.build/gocache" GOTMPDIR="$PWD/.build/tmp" GOPATH="$PWD/.build/gopath" \
	XDG_CONFIG_HOME="$PWD/.build/config" GOTOOLCHAIN=local
go build -o .build/ddemos-e2e .
exec .build/ddemos-e2e "$@"
