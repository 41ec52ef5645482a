package main

import (
	"strings"
	"testing"
)

// FuzzSplitWorkloads: the -workload parser takes a command-line string,
// so arbitrary input must never panic, and whatever it accepts must be
// one clean workload name per comma-separated element.
func FuzzSplitWorkloads(f *testing.F) {
	for _, s := range []string{"swim", " swim", "swim, gcc", "swim+gcc", "swim,,gcc", "swim,", ",", "", " \t ", "a,b,c,d", " swim　"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		parts, err := splitWorkloads(list)
		if err != nil {
			return
		}
		if want := strings.Count(list, ",") + 1; len(parts) != want {
			t.Fatalf("splitWorkloads(%q) = %d elements, want %d", list, len(parts), want)
		}
		for i, p := range parts {
			if p == "" || p != strings.TrimSpace(p) || strings.Contains(p, ",") {
				t.Fatalf("splitWorkloads(%q)[%d] = %q: empty, padded or holding a comma", list, i, p)
			}
		}
	})
}
