package main

import (
	"testing"

	"ddemos/internal/benchmark"
)

func TestCheckTally(t *testing.T) {
	for _, tc := range []struct {
		name     string
		total    int64
		distinct int
		errors   int
		ok       bool
	}{
		{"zero errors, exact tally", 500, 500, 0, true},
		{"shortfall within the error count", 497, 500, 3, true},
		{"shortfall beyond the error count", 496, 500, 3, false},
		{"tally above the distinct serials", 501, 500, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkTally(tc.total, benchmark.LoadReport{DistinctSerials: tc.distinct, Errors: tc.errors})
			if (err == nil) != tc.ok {
				t.Fatalf("checkTally(%d, distinct=%d errors=%d) = %v, want ok=%v",
					tc.total, tc.distinct, tc.errors, err, tc.ok)
			}
		})
	}
}
