package iq

// Deadline is a payload scheduled for tick At.
type Deadline[T any] struct {
	At int64
	V  T
}

// Deadlines is a binary min-heap of payloads ordered by the tick they fall
// due at, kept without container/heap's interface boxing. Equal ticks pop
// in an order fixed by the sequence of pushes and pops alone, so two
// copies driven through the same operations stay identical. The zero
// value is empty.
type Deadlines[T any] []Deadline[T]

// Push schedules v for tick at.
func (h *Deadlines[T]) Push(at int64, v T) {
	s := append(*h, Deadline[T]{At: at, V: v})
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].At <= s[i].At {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

// PopDue removes and returns the earliest item if it falls due at or
// before tick now; ok is false, and the heap unchanged, otherwise.
func (h *Deadlines[T]) PopDue(now int64) (d Deadline[T], ok bool) {
	s := *h
	if len(s) == 0 || s[0].At > now {
		return d, false
	}
	d = s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = Deadline[T]{}
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && s[l].At < s[small].At {
			small = l
		}
		if r < last && s[r].At < s[small].At {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return d, true
}
