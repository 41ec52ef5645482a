package trace

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/isa"
)

// readMixed reads up to n instructions from s with a random mix of Next
// and Window/Advance(k) calls, and stops early when s ends. It fails if
// an empty window is followed by more instructions, and it bounds its own
// calls, so an empty window that does not mean the end cannot spin.
func readMixed(s Windowed, n int, rng *rand.Rand) ([]isa.Inst, error) {
	out := make([]isa.Inst, 0, n)
	for calls := 0; len(out) < n; calls++ {
		if calls > 4*n+16 {
			return out, fmt.Errorf("%s: %d calls yielded only %d instructions", s.Name(), calls, len(out))
		}
		if rng.Intn(3) == 0 {
			in, ok := s.Next()
			if !ok {
				return out, nil
			}
			out = append(out, in)
			continue
		}
		win := s.Window()
		if len(win) == 0 {
			if _, ok := s.Next(); ok {
				return out, fmt.Errorf("%s: empty window at %d but Next still yields", s.Name(), len(out))
			}
			return out, nil
		}
		k := len(win)
		if rng.Intn(2) == 0 {
			k = rng.Intn(len(win) + 1)
		}
		k = min(k, n-len(out))
		out = append(out, win[:k]...)
		s.Advance(k)
	}
	return out, nil
}

// mustRead is readMixed for the test goroutine.
func mustRead(t *testing.T, s Windowed, n int, seed int64) []isa.Inst {
	t.Helper()
	out, err := readMixed(s, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newSeeded(t *testing.T, name string, seed uint64) Stream {
	t.Helper()
	s, err := New(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameInsts(t *testing.T, what string, got, want []isa.Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instructions, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: differs from Next at %d", what, i)
		}
	}
}

// TestKernelWindowsMatchNext: every workload's generator yields through
// mixed Window/Advance and Next reads exactly what Next alone yields,
// across many refills of its buffer.
func TestKernelWindowsMatchNext(t *testing.T) {
	const n = 4*forkChunk + 321
	for _, name := range Names() {
		for _, seed := range []uint64{1, 7} {
			want := Take(newSeeded(t, name, seed), n)
			s, ok := newSeeded(t, name, seed).(Windowed)
			if !ok {
				t.Fatalf("%s has no windows", name)
			}
			got := mustRead(t, s, n, int64(seed))
			sameInsts(t, name, got, want)
		}
	}
}

// TestForkCursorWindowsMatchNext: two cursors on a live-trimming source,
// read concurrently through mixed Window/Advance and Next calls across
// several memo chunks, replay the generator exactly. Over a finite base,
// read with Next (Limit) or through windows (a cursor of a finite
// source), both end at its last instruction, with an empty window and no
// spin.
func TestForkCursorWindowsMatchNext(t *testing.T) {
	const n = 4*forkChunk + 77
	bases := map[string]func() Stream{
		"generator": func() Stream { return newSeeded(t, "gcc", 7) },
		"limit":     func() Stream { return Limit(newSeeded(t, "gcc", 7), n) },
		"cursor":    func() Stream { return NewForkSource(Limit(newSeeded(t, "gcc", 7), n)).Fork() },
	}
	for name, base := range bases {
		finite := name != "generator"
		want := Take(newSeeded(t, "gcc", 7), n)
		src := NewForkSource(base())
		tmpl := src.Fork()
		src.TrimBefore(0)
		first := mustRead(t, tmpl, 1000, 1)
		sameInsts(t, "template", first, want[:1000])
		a, b := tmpl.Fork().(*ForkCursor), tmpl.Fork().(*ForkCursor)
		tmpl.Release()

		// A finite base is asked for more than it holds.
		ask := n - 1000
		if finite {
			ask = n
		}
		var wg sync.WaitGroup
		for i, c := range []*ForkCursor{a, b} {
			wg.Add(1)
			go func(c *ForkCursor, seed int64) {
				defer wg.Done()
				got, err := readMixed(c, ask, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != n-1000 {
					t.Errorf("cursor %d read %d instructions, want %d", seed, len(got), n-1000)
					return
				}
				for j := range got {
					if got[j] != want[1000+j] {
						t.Errorf("cursor %d differs from Next at %d", seed, 1000+j)
						return
					}
				}
				if c.Pos() != n {
					t.Errorf("cursor %d at %d, want %d", seed, c.Pos(), n)
				}
			}(c, int64(2+i))
		}
		wg.Wait()
	}
}

// TestMemoSuffixStopsAtConsumedFrontier: a source fills its memo a chunk
// ahead of its readers, but the saved suffix holds only what some cursor
// consumed — k instructions when a fork reads k past the template,
// whether the fork is live or released. A resumed source's suffix is
// exactly the memo it was handed until a cursor reads past its end.
func TestMemoSuffixStopsAtConsumedFrontier(t *testing.T) {
	const warm = 1000
	want := Take(newSeeded(t, "swim", 1), warm+2*forkChunk)
	for _, k := range []int{1, forkChunk - 1, forkChunk, forkChunk + 1} {
		src := NewForkSource(newSeeded(t, "swim", 1))
		tmpl := src.Fork()
		src.TrimBefore(0)
		mustRead(t, tmpl, warm, int64(k))
		if got := src.MemoSuffix(tmpl.Pos()); len(got) != 0 {
			t.Fatalf("k=%d: suffix of %d at the frontier, want none", k, len(got))
		}
		f := tmpl.Fork().(*ForkCursor)
		mustRead(t, f, k, int64(k))
		sameInsts(t, "live fork's suffix", src.MemoSuffix(tmpl.Pos()), want[warm:warm+k])
		f.Release()
		memo := src.MemoSuffix(tmpl.Pos())
		sameInsts(t, "released fork's suffix", memo, want[warm:warm+k])

		res, err := ResumeForkSource(newSeeded(t, "swim", 1), warm, memo)
		if err != nil {
			t.Fatal(err)
		}
		rt := res.Fork()
		sameInsts(t, "resumed suffix", res.MemoSuffix(rt.Pos()), memo)
		mustRead(t, rt, k/2, int64(k))
		sameInsts(t, "resumed suffix after reading inside it", res.MemoSuffix(0), memo)
		mustRead(t, rt, k-k/2+5, int64(k))
		sameInsts(t, "resumed suffix after reading past it", res.MemoSuffix(0), want[warm:warm+k+5])
	}
}
