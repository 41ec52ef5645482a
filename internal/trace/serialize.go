package trace

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/isa"
)

// Checkpoint serialization of the instruction stream. Synthetic
// generators hold closure state and cannot be snapshotted directly, so a
// checkpoint records the stream *position* instead: the workload name and
// seed rebuild the generator, and the consumer skips forward to the warm
// frontier. The memo suffix that cursors have already consumed past the
// template's own cursor (forked runs that outpaced the template) is carried
// verbatim so a resumed source replays bit-identical instructions without
// re-pulling them from the rebuilt base.

// EncodeInst writes one instruction record.
func EncodeInst(w *codec.Writer, in *isa.Inst) {
	w.U64(in.PC)
	w.U8(uint8(in.Class))
	w.Int(in.Src1)
	w.Int(in.Src2)
	w.Int(in.Dest)
	w.U64(in.Addr)
	w.U8(in.Size)
	w.Bool(in.Taken)
	w.U64(in.Target)
}

// DecodeInst reads one instruction record and validates it.
func DecodeInst(r *codec.Reader) (isa.Inst, error) {
	in := isa.Inst{
		PC:    r.U64(),
		Class: isa.Class(r.U8()),
		Src1:  r.Int(),
		Src2:  r.Int(),
		Dest:  r.Int(),
		Addr:  r.U64(),
		Size:  r.U8(),
		Taken: r.Bool(),
	}
	in.Target = r.U64()
	if err := r.Err(); err != nil {
		return isa.Inst{}, err
	}
	if err := in.Validate(); err != nil {
		return isa.Inst{}, fmt.Errorf("trace: decoded instruction invalid: %w", err)
	}
	return in, nil
}

// Source returns the cursor's underlying fork source.
func (c *ForkCursor) Source() *ForkSource { return c.src }

// MemoSuffix returns a copy of the memoised instructions at positions
// [from, frontier), where frontier is the consumed frontier: the furthest
// position any live or released cursor has read to, or the end of a
// resumed source's carried memo. The memo may run further (it fills a
// chunk at a time), but only what some cursor consumed is part of the
// saved state, so the suffix is the same however far ahead the fill ran.
// The caller must know that no chunk at or above from has been trimmed; a
// checkpoint template calls this with its own cursor position, which live
// trimming never passes.
func (s *ForkSource) MemoSuffix(from int64) []isa.Inst {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.done
	for _, c := range s.curs {
		n = max(n, c.pos.Load())
	}
	if from >= n {
		return nil
	}
	if int(from/forkChunk) < s.lowChunk {
		panic(fmt.Sprintf("trace: memo suffix from %d reaches below trim point (chunk %d)",
			from, s.lowChunk))
	}
	chunks := *s.chunks.Load()
	out := make([]isa.Inst, n-from)
	for i := 0; i < len(out); {
		p := from + int64(i)
		i += copy(out[i:], chunks[p/forkChunk][p%forkChunk:])
	}
	return out
}

// ResumeForkSource rebuilds a fork source at a serialized checkpoint's
// warm frontier. It discards skip instructions from base (the frontier's
// position in the original stream), seeds the memo with the carried
// suffix, and returns a source whose origin is the frontier — exactly the
// state NewForkSource + warmup left behind when the checkpoint was saved.
// It fails if base exhausts before the frontier is reached.
func ResumeForkSource(base Stream, skip int64, memo []isa.Inst) (*ForkSource, error) {
	if got := discard(base, skip); got < skip {
		return nil, fmt.Errorf("trace: %s exhausted at %d/%d while seeking warm frontier",
			base.Name(), got, skip)
	}
	s := NewForkSource(base)
	if len(memo) == 0 {
		return s, nil
	}
	// The carried suffix was already pulled from the original base beyond
	// the frontier; pull the same span from the rebuilt base into the memo
	// so it stays aligned, check it against the suffix, and publish it as
	// the memo prefix.
	chunks := make([]*[forkChunk]isa.Inst, (len(memo)+forkChunk-1)/forkChunk)
	for i := range chunks {
		chunks[i] = newChunk()
		want := memo[i*forkChunk : min(len(memo), (i+1)*forkChunk)]
		got := chunks[i][:pull(base, chunks[i][:len(want)])]
		for j := range got {
			if got[j] != want[j] {
				return nil, fmt.Errorf("trace: %s diverges from carried memo at frontier offset %d",
					base.Name(), i*forkChunk+j)
			}
		}
		if len(got) < len(want) {
			return nil, fmt.Errorf("trace: %s exhausted %d instructions into carried memo suffix",
				base.Name(), i*forkChunk+len(got))
		}
	}
	s.chunks.Store(&chunks)
	s.count.Store(int64(len(memo)))
	s.done = int64(len(memo))
	return s, nil
}
