// Package mem implements the detailed event-driven memory hierarchy of
// Table 1: split 64 KB 2-way L1 instruction and data caches, a unified
// 1 MB 4-way L2, and main memory, with per-cache MSHRs (32 outstanding
// misses), miss merging (delayed hits), finite link bandwidth, and
// write-back/write-allocate policy.
package mem

// Handler receives deferred memory-system callbacks. A component that
// schedules events implements it once and dispatches on its own op codes;
// now is the event's scheduled time (see RunDue's time contract), k is the
// service kind for cache-delivery events (KindHit for plain timer events),
// and arg is the per-event payload.
type Handler interface {
	HandleEvent(op uint8, now int64, k Kind, arg any)
}

// Ref names a deferred callback without a closure: a handler, the
// handler's dispatch code, and a payload. Storing pointer-shaped values in
// the interfaces does not heap-allocate, so hot paths build Refs freely —
// and unlike an opaque function value, a Ref is inspectable: the
// active-clone machinery can remap H and Arg onto a cloned machine's
// structures, which closures made impossible.
type Ref struct {
	H   Handler
	Op  uint8
	Arg any
}

// Deliver invokes the referenced callback.
func (r Ref) Deliver(now int64, k Kind) { r.H.HandleEvent(r.Op, now, k, r.Arg) }

// plainFunc adapts a plain func(now) callback to the Handler form. A func
// value is pointer-shaped, so carrying it in Ref.Arg allocates nothing.
type plainFunc struct{}

func (plainFunc) HandleEvent(_ uint8, now int64, _ Kind, arg any) { arg.(func(int64))(now) }

// PlainFunc wraps fn as a Ref. Refs built this way cannot be remapped
// across an active clone (the function value is opaque), so the engine's
// own paths use real handlers; PlainFunc serves tests and one-shot
// tooling, and the quiescent-clone path where no events are pending.
func PlainFunc(fn func(now int64)) Ref { return Ref{H: plainFunc{}, Arg: fn} }

// kindFunc adapts a func(now, Kind) access callback to the Handler form.
type kindFunc struct{}

func (kindFunc) HandleEvent(_ uint8, now int64, k Kind, arg any) { arg.(func(int64, Kind))(now, k) }

// KindFunc wraps fn as a Ref whose delivery forwards the service Kind.
// The same remapping caveat as PlainFunc applies.
func KindFunc(fn func(now int64, k Kind)) Ref { return Ref{H: kindFunc{}, Arg: fn} }

// EventQueue is a monotonic time-ordered callback queue. Events scheduled
// for the same cycle run in scheduling order. The heap is managed by hand
// on a typed slice (container/heap would box every event through `any`,
// which allocates on the simulator's hottest path).
type EventQueue struct {
	h   []event
	seq uint64
}

type event struct {
	when int64
	seq  uint64
	ref  Ref
}

func (q *EventQueue) less(i, j int) bool {
	if q.h[i].when != q.h[j].when {
		return q.h[i].when < q.h[j].when
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}

func (q *EventQueue) push(e event) {
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

func (q *EventQueue) pop() event {
	e := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = event{} // clear the ref so released values can be collected
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return e
}

// ScheduleRef delivers ref at the given cycle (with KindHit — the kind
// only matters for cache-internal delivery paths, which carry it in their
// own structures). An event scheduled in the past fires on the next
// RunDue, but still observes its own scheduled time — see RunDue.
func (q *EventQueue) ScheduleRef(when int64, ref Ref) {
	q.seq++
	q.push(event{when: when, seq: q.seq, ref: ref})
}

// Schedule runs fn at the given cycle: ScheduleRef over a PlainFunc
// wrapper (allocation-free, but not remappable across an active clone).
func (q *EventQueue) Schedule(when int64, fn func(now int64)) {
	q.ScheduleRef(when, PlainFunc(fn))
}

// RunDue executes every event whose time is <= now, including events those
// events schedule at or before now. It returns the number executed.
//
// Time contract: a callback observes the event's own scheduled time, not
// the caller's clock. The two differ only when RunDue is called with a
// clock past the event's due time. The engine ticks every cycle and never
// does that, but a caller that does must not shift completion stamps: an
// event due at cycle 90 still sees 90 when drained at 120.
func (q *EventQueue) RunDue(now int64) int {
	n := 0
	for len(q.h) > 0 && q.h[0].when <= now {
		e := q.pop()
		e.ref.Deliver(e.when, KindHit)
		n++
	}
	return n
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }
