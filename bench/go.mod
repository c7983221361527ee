// The benchmark is a module of its own so that it builds from bench/ alone
// (plus the repository it measures, one directory up) and so the root
// module's `go build ./... && go test ./...` never depends on it.
module ddemos/bench

go 1.22

require ddemos v0.0.0

replace ddemos => ../
