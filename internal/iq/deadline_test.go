package iq

import (
	"math/rand"
	"sort"
	"testing"
)

// Deadlines pops exactly the items due, earliest first, whatever the push
// order, and leaves the rest.
func TestDeadlinesPopsInTickOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Deadlines[int]
	var want []int64
	for i := 0; i < 500; i++ {
		at := int64(rng.Intn(100))
		h.Push(at, i)
		want = append(want, at)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []int64
	for now := int64(0); now < 50; now++ {
		for {
			d, ok := h.PopDue(now)
			if !ok {
				break
			}
			if d.At > now {
				t.Fatalf("popped an item due at %d at tick %d", d.At, now)
			}
			got = append(got, d.At)
		}
	}
	n := sort.Search(len(want), func(i int) bool { return want[i] >= 50 })
	if len(got) != n || len(h) != len(want)-n {
		t.Fatalf("popped %d and kept %d, want %d and %d", len(got), len(h), n, len(want)-n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop %d at tick %d, want %d", i, got[i], want[i])
		}
	}
}
