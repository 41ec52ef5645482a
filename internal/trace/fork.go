package trace

import (
	"sync"
	"sync/atomic"

	"repro/internal/isa"
)

// Forkable is a stream whose position can be duplicated: Fork returns an
// independent stream that continues from the same point. Machine
// checkpoints require their streams to be forkable so that every run
// forked from the checkpoint replays the same instruction suffix.
type Forkable interface {
	Stream
	Fork() Stream
}

// forkChunk is the number of instructions memoised per chunk. Chunks are
// allocated lazily as the leading cursor advances.
const forkChunk = 1 << 12

// chunkPool recycles memo chunks across trims and sources: a long warmup
// allocates and releases the chunks of its whole prefix one by one, and a
// sweep repeats that per checkpoint, so without reuse the chunk churn
// dominates a forked sweep's allocation profile. Reusing a trimmed chunk
// is safe by the same argument that lets trimming free it: only chunks
// wholly below every live cursor's published position are trimmed, a
// cursor never reads below its own position, and origin forks are
// prohibited once trimming is armed — so no reader can still be looking
// at a pooled chunk when it is overwritten. Stale instructions in a
// reused chunk are unobservable: slot i is readable only after the
// source publishes count > i, which happens after the slot is written.
var chunkPool sync.Pool

func newChunk() *[forkChunk]isa.Inst {
	if v := chunkPool.Get(); v != nil {
		return v.(*[forkChunk]isa.Inst)
	}
	return new([forkChunk]isa.Inst)
}

// ForkSource memoises an underlying stream so that any number of cursors
// can replay it, each at its own position, from concurrent goroutines.
// The underlying stream is only ever pulled by the leading cursor, under
// a mutex, a whole chunk at a time: a cursor that reaches the leading
// edge fills the memo to the end of the chunk it stands in and publishes
// the new count once. Trailing cursors read the memo lock-free.
// Publication is via an atomic instruction count: a cursor may read memo
// slot i only after observing count > i, which orders the read after the
// slot's write.
//
// count therefore runs up to a chunk ahead of what any cursor has read.
// What has been read is the consumed frontier: the furthest position of
// any live cursor, of any released one, and of a resumed source's carried
// memo. A checkpoint saves the memo only up to that frontier
// (MemoSuffix), so the saved bytes do not depend on how far ahead the
// fill ran.
//
// The source keeps a registry of its live cursors. Once TrimBefore has
// been called (declaring that no cursor will ever start below the trim
// point again — origin forks are dead from then on), the source trims
// itself as the memo grows: whenever the leading cursor allocates a new
// chunk, every chunk below the minimum live cursor position is released.
// A long measured run's footprint is then bounded by the spread between
// the fastest and slowest cursor rather than the whole measured suffix.
type ForkSource struct {
	name string

	mu   sync.Mutex // guards base, memo extension, the registry, and trimming
	base Stream

	// curs are the live cursors; their minimum position bounds automatic
	// trimming. Cursors register at Fork and leave at Release.
	curs []*ForkCursor
	// liveTrim arms automatic trimming; set by the first TrimBefore.
	liveTrim bool
	// lowChunk is the first chunk index still memoised (all below are nil).
	lowChunk int
	// done is the furthest position a released cursor reached, or the
	// length of a resumed source's carried memo; with the live cursors'
	// positions it makes the consumed frontier.
	done int64

	chunks atomic.Pointer[[]*[forkChunk]isa.Inst]
	count  atomic.Int64 // instructions memoised and published
	end    atomic.Int64 // position where base exhausted, or -1
}

// NewForkSource wraps base, whose position becomes the source's origin.
// base must not be used directly afterwards.
func NewForkSource(base Stream) *ForkSource {
	s := &ForkSource{name: base.Name(), base: base}
	s.end.Store(-1)
	empty := make([]*[forkChunk]isa.Inst, 0)
	s.chunks.Store(&empty)
	return s
}

// Fork returns a new cursor positioned at the source's origin.
func (s *ForkSource) Fork() *ForkCursor {
	c := &ForkCursor{src: s}
	s.mu.Lock()
	s.curs = append(s.curs, c)
	s.mu.Unlock()
	return c
}

// extend memoises the base's instructions through the end of the chunk
// that holds target, or until the base ends, and publishes them with one
// count store.
func (s *ForkSource) extend(target int64) {
	s.mu.Lock()
	n := s.count.Load()
	if n > target || s.end.Load() >= 0 {
		s.mu.Unlock()
		return
	}
	ended := false
	for n <= target && !ended {
		chunks := *s.chunks.Load()
		if int(n/forkChunk) == len(chunks) {
			// A new chunk is about to be pinned: drop the ones every live
			// cursor has already replayed, so the resident window slides
			// with the cursors instead of accumulating.
			s.autoTrimLocked()
			chunks = *s.chunks.Load()
			nc := make([]*[forkChunk]isa.Inst, len(chunks)+1)
			copy(nc, chunks)
			nc[len(chunks)] = newChunk()
			s.chunks.Store(&nc)
			chunks = nc
		}
		dst := chunks[n/forkChunk][n%forkChunk:]
		got := pull(s.base, dst)
		n += int64(got)
		ended = got < len(dst)
	}
	s.count.Store(n)
	if ended {
		s.end.Store(n)
	}
	s.mu.Unlock()
}

// autoTrimLocked trims behind the minimum live cursor. Callers hold s.mu.
func (s *ForkSource) autoTrimLocked() {
	if !s.liveTrim || len(s.curs) == 0 {
		return
	}
	min := s.curs[0].pos.Load()
	for _, c := range s.curs[1:] {
		if p := c.pos.Load(); p < min {
			min = p
		}
	}
	s.trimBeforeLocked(min)
}

// TrimBefore releases the memo chunks wholly below pos. Calling it is the
// caller's declaration that no cursor will ever read below pos again —
// from then on new cursors must come from forking live cursors (an origin
// cursor from Fork would read the freed prefix) — and it arms live
// trimming: as the memo grows, the source keeps releasing chunks behind
// the minimum live cursor on its own.
//
// Trimming is safe concurrently with cursor reads: the chunk slice is
// replaced copy-on-write, a cursor publishes its position before reading
// the slot it points at, and only chunks strictly below the minimum
// published position are freed.
func (s *ForkSource) TrimBefore(pos int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.liveTrim = true
	s.trimBeforeLocked(pos)
}

// trimBeforeLocked nils the chunks wholly below pos. Callers hold s.mu.
func (s *ForkSource) trimBeforeLocked(pos int64) {
	chunks := *s.chunks.Load()
	lo := int(pos / forkChunk)
	if lo > len(chunks) {
		lo = len(chunks)
	}
	if lo <= s.lowChunk {
		return
	}
	nc := make([]*[forkChunk]isa.Inst, len(chunks))
	copy(nc, chunks)
	for i := s.lowChunk; i < lo; i++ {
		if nc[i] != nil {
			chunkPool.Put(nc[i])
			nc[i] = nil
		}
	}
	s.lowChunk = lo
	s.chunks.Store(&nc)
}

// ForkCursor is one replay position over a ForkSource. It implements
// Forkable; cursors on the same source may advance concurrently.
type ForkCursor struct {
	src *ForkSource
	pos atomic.Int64
}

// Name implements Stream.
func (c *ForkCursor) Name() string { return c.src.name }

// Pos returns the cursor's position relative to the source's origin.
func (c *ForkCursor) Pos() int64 { return c.pos.Load() }

// Fork implements Forkable: the new cursor continues from c's position.
func (c *ForkCursor) Fork() Stream {
	n := &ForkCursor{src: c.src}
	n.pos.Store(c.pos.Load())
	c.src.mu.Lock()
	c.src.curs = append(c.src.curs, n)
	c.src.mu.Unlock()
	return n
}

// Release unregisters the cursor from its source, so live trimming no
// longer waits for it. A checkpoint template releases its cursor when the
// last grid point has forked; without that, the cursor pinned at the warm
// frontier would hold the whole measured suffix in memory. The cursor
// must not be read or forked after Release.
func (c *ForkCursor) Release() {
	s := c.src
	s.mu.Lock()
	s.done = max(s.done, c.pos.Load())
	for i, cc := range s.curs {
		if cc == c {
			s.curs[i] = s.curs[len(s.curs)-1]
			s.curs[len(s.curs)-1] = nil
			s.curs = s.curs[:len(s.curs)-1]
			break
		}
	}
	s.mu.Unlock()
}

// Next implements Stream.
func (c *ForkCursor) Next() (isa.Inst, bool) {
	for {
		p := c.pos.Load()
		if n := c.src.count.Load(); p < n {
			chunks := *c.src.chunks.Load()
			in := chunks[p/forkChunk][p%forkChunk]
			c.pos.Store(p + 1)
			return in, true
		}
		if end := c.src.end.Load(); end >= 0 && p >= end {
			return isa.Inst{}, false
		}
		c.src.extend(p)
	}
}

// Window implements Windowed: the memo from the cursor's position to the
// end of its chunk or to the published count, whichever comes first. At
// the leading edge it fills the memo first. The cursor's published
// position stays at the window's start until Advance, so live trimming
// cannot free the chunk under it.
func (c *ForkCursor) Window() []isa.Inst {
	for {
		p := c.pos.Load()
		if n := c.src.count.Load(); p < n {
			chunks := *c.src.chunks.Load()
			lo := p % forkChunk
			return chunks[p/forkChunk][lo:min(forkChunk, lo+n-p)]
		}
		if end := c.src.end.Load(); end >= 0 && p >= end {
			return nil
		}
		c.src.extend(p)
	}
}

// Advance implements Windowed.
func (c *ForkCursor) Advance(n int) { c.pos.Store(c.pos.Load() + int64(n)) }
