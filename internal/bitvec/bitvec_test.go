package bitvec

import (
	"testing"
)

// model is a reference implementation: a plain bool slice.
type model []bool

func (m *model) insert(i int, v bool) {
	*m = append(*m, false)
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = v
}

func (m *model) remove(i int) {
	copy((*m)[i:], (*m)[i+1:])
	*m = (*m)[:len(*m)-1]
}

func (m model) count() int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

func (m model) nextSet(i int) int {
	for ; i < len(m); i++ {
		if m[i] {
			return i
		}
	}
	return -1
}

func (m model) prevSet(i int) int {
	for ; i >= 0; i-- {
		if m[i] {
			return i
		}
	}
	return -1
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// TestAgainstModel drives random insert/remove/run-remove/set/clear
// sequences across word boundaries and compares every observable against
// the bool-slice model.
func TestAgainstModel(t *testing.T) {
	const capacity = 200 // > 3 words
	r := &rng{s: 42}
	w := New(capacity)
	var m model

	check := func(step int) {
		t.Helper()
		if got, want := Count(w), m.count(); got != want {
			t.Fatalf("step %d: Count = %d, want %d", step, got, want)
		}
		if got, want := Any(w), m.count() > 0; got != want {
			t.Fatalf("step %d: Any = %v, want %v", step, got, want)
		}
		for i := 0; i < len(m); i++ {
			if Test(w, i) != m[i] {
				t.Fatalf("step %d: bit %d = %v, want %v", step, i, Test(w, i), m[i])
			}
		}
		for i := 0; i <= len(m); i++ {
			if got, want := NextSet(w, i), m.nextSet(i); got != want {
				t.Fatalf("step %d: NextSet(%d) = %d, want %d", step, i, got, want)
			}
		}
		for i := -1; i < len(m); i++ {
			if got, want := PrevSet(w, i), m.prevSet(i); got != want {
				t.Fatalf("step %d: PrevSet(%d) = %d, want %d", step, i, got, want)
			}
		}
	}

	for step := 0; step < 4000; step++ {
		// Inserts outweigh removals so the sequence grows past one word
		// and run removals shift bits across word boundaries.
		switch op := r.intn(12); {
		case op <= 4 && len(m) < capacity-1, len(m) == 0:
			i := r.intn(len(m) + 1)
			v := r.intn(2) == 0
			Insert(w, i, v)
			m.insert(i, v)
		case op <= 5:
			i := r.intn(len(m))
			Remove(w, i)
			m.remove(i)
		case op == 6:
			i := r.intn(len(m))
			Set(w, i)
			m[i] = true
		case op == 7:
			i := r.intn(len(m))
			n := 1 + r.intn(min(len(m)-i, 4))
			RemoveRun(w, i, n)
			for j := 0; j < n; j++ {
				m.remove(i)
			}
		default:
			i := r.intn(len(m))
			v := r.intn(2) == 0
			Assign(w, i, v)
			m[i] = v
		}
		check(step)
	}
}
