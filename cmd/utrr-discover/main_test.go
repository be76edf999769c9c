package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins the flag combinations utrr-discover refuses before
// running anything: a non-positive iteration count, and -csv with
// -probe, which has no per-iteration observations to write.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		iterations int
		probe      bool
		csv        string
		want       string
	}{
		{100, false, "", ""},
		{40, false, "out.csv", ""},
		{100, true, "", ""},
		{0, false, "", "must be > 0"},
		{-3, true, "", "must be > 0"},
		{100, true, "out.csv", "-probe records none"},
	} {
		err := checkFlags(tc.iterations, tc.probe, tc.csv)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("checkFlags(%d, %v, %q) = %v, want %q", tc.iterations, tc.probe, tc.csv, err, tc.want)
		}
	}
}
