package main

import (
	"maps"
	"testing"
)

// TestParseWeights: -weights names each tenant once, with a positive
// integer weight; anything else is refused rather than silently read.
func TestParseWeights(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]int // nil with ok false: refused
		ok   bool
	}{
		{"", nil, true},
		{"a=2", map[string]int{"a": 2}, true},
		{"alice=2, bob=1", map[string]int{"alice": 2, "bob": 1}, true},
		{"a", nil, false},
		{"a=", nil, false},
		{"a=0", nil, false},
		{"a=-1", nil, false},
		{"a=x", nil, false},
		{"=2", nil, false},
		{"a=1,a=2", nil, false},
		{"a=1,,b=1", nil, false},
	} {
		got, err := parseWeights(tc.in)
		if (err == nil) != tc.ok || !maps.Equal(got, tc.want) {
			t.Errorf("parseWeights(%q) = %v, %v; want %v, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
