package pipeline

import (
	"fmt"

	"repro/internal/uop"
)

// ROB is the reorder buffer: a ring of in-flight instructions retired in
// program order. Per §5 the paper sizes it at three times the IQ.
type ROB struct {
	ring []*uop.UOp
	head int
	n    int
}

// NewROB builds a reorder buffer of the given capacity.
func NewROB(capacity int) *ROB {
	if capacity < 1 {
		panic(fmt.Sprintf("pipeline: ROB capacity %d", capacity))
	}
	return &ROB{ring: make([]*uop.UOp, capacity)}
}

// Full reports whether another instruction can be allocated.
func (r *ROB) Full() bool { return r.n == len(r.ring) }

// Len returns the number of in-flight instructions.
func (r *ROB) Len() int { return r.n }

// Capacity returns the buffer size.
func (r *ROB) Capacity() int { return len(r.ring) }

// Push allocates the next entry for u. The caller must have checked Full.
func (r *ROB) Push(u *uop.UOp) {
	if r.Full() {
		panic("pipeline: push into full ROB")
	}
	r.ring[(r.head+r.n)%len(r.ring)] = u
	r.n++
}

// Head returns the oldest in-flight instruction, or nil.
func (r *ROB) Head() *uop.UOp {
	if r.n == 0 {
		return nil
	}
	return r.ring[r.head]
}

// Commit retires up to width completed instructions in program order,
// invoking onCommit for each, and returns the number retired. An
// instruction is retirable once its completion cycle is known and has
// passed (for stores, once the effective address is known — the access
// itself drains from a post-retirement write queue).
func (r *ROB) Commit(cycle int64, width int, onCommit func(*uop.UOp)) int {
	done := 0
	for done < width && r.n > 0 {
		u := r.ring[r.head]
		if u.Complete == uop.NotYet || u.Complete > cycle {
			break
		}
		onCommit(u)
		r.ring[r.head] = nil
		r.head = (r.head + 1) % len(r.ring)
		r.n--
		done++
	}
	return done
}

// Refers reports whether u is resident or is the producer of a resident
// instruction's operand (a checking aid for uop reuse).
func (r *ROB) Refers(u *uop.UOp) bool {
	for i := 0; i < r.n; i++ {
		x := r.ring[(r.head+i)%len(r.ring)]
		if x == u || x.Prod[0] == u || x.Prod[1] == u {
			return true
		}
	}
	return false
}
