// Package trace generates the dynamic instruction streams that drive the
// simulator.
//
// The paper evaluates on SPEC CPU2000 Alpha binaries (ammp, applu, equake,
// gcc, mgrid, swim, twolf, vortex). Those binaries and checkpoints are not
// available here, so this package substitutes deterministic synthetic
// workload generators, one per benchmark, that reproduce the properties the
// paper's evaluation depends on: instruction mix, dependence-chain shape
// (streaming vs. pointer-chasing vs. indirection), working-set sizes (hence
// L1/L2/memory miss rates and delayed hits), branch predictability, and
// instruction-level parallelism. See DESIGN.md §2 for the substitution
// rationale.
//
// Each workload is a small loop nest expressed as a template of static
// instructions with fixed PCs, so that PC-indexed predictors (branch
// predictor, hit/miss predictor, left/right predictor) observe a stable
// static instruction stream, exactly as they would running a real binary.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/isa"
)

// Stream produces a dynamic instruction trace. Implementations are
// deterministic: two streams constructed with the same arguments produce
// identical instruction sequences.
type Stream interface {
	// Name identifies the workload.
	Name() string
	// Next returns the next dynamic instruction. ok is false when the
	// stream is exhausted; generators for the SPEC-like workloads never
	// exhaust.
	Next() (in isa.Inst, ok bool)
}

// Windowed is a stream that can also hand out its next instructions as a
// slice, so a reader that consumes many of them pays the stream's
// per-call cost (a lock, atomics, a generator step) once per window
// instead of once per instruction.
//
// Window returns instructions from the stream's position onwards that
// are ready to read; an empty window means the stream has ended. The
// slice is read-only and stays valid only until the next call on the
// stream. Advance(n) consumes the first n instructions of the current
// window, 0 <= n <= len(Window()). Window and Advance mix freely with
// Next: all three read the same sequence.
type Windowed interface {
	Stream
	Window() []isa.Inst
	Advance(n int)
}

// pull copies instructions from s into dst, through its windows when s
// has them, and returns how many it copied. Fewer than len(dst) means s
// ended.
func pull(s Stream, dst []isa.Inst) int {
	if w, ok := s.(Windowed); ok {
		n := 0
		for n < len(dst) {
			win := w.Window()
			if len(win) == 0 {
				break
			}
			k := copy(dst[n:], win)
			w.Advance(k)
			n += k
		}
		return n
	}
	for i := range dst {
		in, ok := s.Next()
		if !ok {
			return i
		}
		dst[i] = in
	}
	return len(dst)
}

// discard drops up to n instructions from s, through its windows when it
// has them, and returns how many it dropped. Fewer than n means s ended.
func discard(s Stream, n int64) int64 {
	if w, ok := s.(Windowed); ok {
		var i int64
		for i < n {
			win := w.Window()
			if len(win) == 0 {
				break
			}
			k := int(min(int64(len(win)), n-i))
			w.Advance(k)
			i += int64(k)
		}
		return i
	}
	for i := int64(0); i < n; i++ {
		if _, ok := s.Next(); !ok {
			return i
		}
	}
	return n
}

// Constructor builds a fresh Stream for a named workload; seed selects
// the deterministic random sequence used for data-dependent behaviour.
type Constructor func(seed uint64) Stream

// Benchmarks maps the eight workload names used in the paper's evaluation
// to their generator constructors.
var Benchmarks = map[string]Constructor{
	"ammp":   NewAmmp,
	"applu":  NewApplu,
	"equake": NewEquake,
	"gcc":    NewGcc,
	"mgrid":  NewMgrid,
	"swim":   NewSwim,
	"twolf":  NewTwolf,
	"vortex": NewVortex,
}

// Names returns the benchmark names in sorted order.
func Names() []string {
	names := make([]string, 0, len(Benchmarks))
	for n := range Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New constructs the named workload, or an error if unknown.
func New(name string, seed uint64) (Stream, error) {
	b, ok := Benchmarks[name]
	if !ok {
		return nil, fmt.Errorf("trace: unknown benchmark %q (have %v)", name, Names())
	}
	return b(seed), nil
}

// Limited wraps a stream and ends it after n instructions.
type Limited struct {
	s    Stream
	left int64
}

// Limit returns a stream that yields at most n instructions from s.
func Limit(s Stream, n int64) *Limited {
	return &Limited{s: s, left: n}
}

// Name implements Stream.
func (l *Limited) Name() string { return l.s.Name() }

// Next implements Stream.
func (l *Limited) Next() (isa.Inst, bool) {
	if l.left <= 0 {
		return isa.Inst{}, false
	}
	l.left--
	return l.s.Next()
}

// SliceStream replays a fixed slice of instructions; used by tests and the
// worked Figure 1 example.
type SliceStream struct {
	name string
	ins  []isa.Inst
	pos  int
}

// FromSlice builds a stream that yields the given instructions once.
func FromSlice(name string, ins []isa.Inst) *SliceStream {
	return &SliceStream{name: name, ins: ins}
}

// Name implements Stream.
func (s *SliceStream) Name() string { return s.name }

// Next implements Stream.
func (s *SliceStream) Next() (isa.Inst, bool) {
	if s.pos >= len(s.ins) {
		return isa.Inst{}, false
	}
	in := s.ins[s.pos]
	s.pos++
	return in, true
}

// Take drains up to n instructions from s into a slice.
func Take(s Stream, n int) []isa.Inst {
	out := make([]isa.Inst, 0, n)
	for len(out) < n {
		in, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}
