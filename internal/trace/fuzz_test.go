package trace

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/isa"
)

// FuzzResumeForkSource: ResumeForkSource rebuilds a fork source from a
// checkpoint's warm frontier and carried memo suffix, both read from a
// file. The memo here is a true prefix of the stream beyond the frontier
// (good instructions) followed by whatever instruction records the
// fuzzer's tail bytes decode to. Whatever it holds, the call must not
// panic, must allocate in proportion to the memo it was handed, and must
// either fail — exactly when the memo departs from the generator — or
// return a source whose forks replay a fresh generator from the frontier.
func FuzzResumeForkSource(f *testing.F) {
	var foreign bytes.Buffer
	w := codec.NewWriter(&foreign)
	EncodeInst(w, &isa.Inst{PC: 0x400, Class: isa.IntAlu, Src1: 1, Src2: isa.RegNone, Dest: 2})
	f.Add(uint8(0), uint64(1), uint16(0), uint16(0), []byte(nil))
	f.Add(uint8(1), uint64(7), uint16(300), uint16(40), []byte(nil))
	f.Add(uint8(2), uint64(3), uint16(5000), uint16(forkChunk+1), []byte(nil))
	f.Add(uint8(3), uint64(2), uint16(100), uint16(10), foreign.Bytes())
	f.Add(uint8(4), uint64(9), uint16(0), uint16(0), foreign.Bytes()[:7])
	names := Names()
	chunkBytes := uint64(forkChunk) * uint64(unsafe.Sizeof(isa.Inst{}))
	f.Fuzz(func(t *testing.T, wl uint8, seed uint64, skip, good uint16, tail []byte) {
		name := names[int(wl)%len(names)]
		var memo []isa.Inst
		r := codec.NewReader(bytes.NewReader(tail))
		for {
			in, err := DecodeInst(r)
			if err != nil {
				break
			}
			memo = append(memo, in)
		}
		const extra = 64 // instructions compared past the memo
		ref, err := New(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(skip); i++ {
			ref.Next()
		}
		truth := Take(ref, int(good)+len(memo)+extra)
		memo = append(append([]isa.Inst(nil), truth[:good]...), memo...)
		matches := true
		for i, in := range memo {
			matches = matches && in == truth[i]
		}

		base, err := New(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, err := ResumeForkSource(base, int64(skip), memo)
		runtime.ReadMemStats(&after)
		if bound := (uint64(len(memo))/forkChunk+1)*chunkBytes + 1<<20; after.TotalAlloc-before.TotalAlloc > bound {
			t.Fatalf("resuming a %d-instruction memo allocated %d bytes, bound %d",
				len(memo), after.TotalAlloc-before.TotalAlloc, bound)
		}
		if err != nil {
			if matches {
				t.Fatalf("a memo that matches the generator was rejected: %v", err)
			}
			return
		}
		if !matches {
			t.Fatal("a memo that departs from the generator was accepted")
		}
		got := Take(src.Fork(), len(truth))
		for i := range truth {
			if got[i] != truth[i] {
				t.Fatalf("resumed stream differs from the generator at frontier offset %d", i)
			}
		}
	})
}

// FuzzForkCursorOps drives one fork source over a finite base with a
// random sequence of Fork, Next, Window+Advance, Release, TrimBefore and
// MemoSuffix calls over several cursors, and checks each against a flat
// reference slice: no panic, every cursor reads the reference from its
// own position, and every suffix runs exactly to the consumed frontier —
// the furthest position any cursor, live or released, has reached.
// Each op is three bytes: the call, a cursor, an amount.
func FuzzForkCursorOps(f *testing.F) {
	f.Add(uint8(0), uint16(0), []byte{1, 0, 255, 2, 0, 255, 0, 0, 0, 5, 0, 0, 4, 0, 255, 2, 1, 128, 5, 0, 0, 3, 1, 0, 5, 0, 0})
	f.Add(uint8(3), uint16(9000), []byte{2, 0, 255, 2, 0, 255, 2, 0, 255, 2, 0, 255, 2, 0, 255, 0, 0, 0, 5, 0, 0, 3, 0, 0, 2, 0, 255, 5, 0, 0})
	f.Add(uint8(5), uint16(100), []byte{4, 0, 0, 0, 0, 0, 1, 1, 200, 2, 0, 17, 3, 0, 0, 5, 0, 0, 2, 0, 255, 2, 0, 255, 5, 0, 0})
	names := Names()
	f.Fuzz(func(t *testing.T, wl uint8, extra uint16, ops []byte) {
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		name := names[int(wl)%len(names)]
		n := 3*forkChunk + int(extra)%(2*forkChunk)
		base, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := Take(base, n)
		base, _ = New(name, 1)
		src := NewForkSource(Limit(base, int64(n)))
		curs := []*ForkCursor{src.Fork()}
		armed := false
		var frontier int64
		for i := 0; i+2 < len(ops); i += 3 {
			op, amt := ops[i]%6, int(ops[i+2])
			var c *ForkCursor
			if len(curs) > 0 {
				c = curs[int(ops[i+1])%len(curs)]
			}
			switch {
			case op == 0 && c == nil && !armed:
				curs = append(curs, src.Fork())
			case op == 0 && c != nil && len(curs) < 8:
				curs = append(curs, c.Fork().(*ForkCursor))
			case op == 1 && c != nil:
				for j := 0; j < 16*amt+1; j++ {
					p := c.Pos()
					in, ok := c.Next()
					if ok != (p < int64(n)) || ok && in != ref[p] {
						t.Fatalf("Next at %d: ok=%v, differs from reference", p, ok)
					}
				}
			case op == 2 && c != nil:
				p, win := c.Pos(), c.Window()
				if len(win) == 0 != (p >= int64(n)) {
					t.Fatalf("empty window at %d of %d", p, n)
				}
				for j := range win {
					if win[j] != ref[p+int64(j)] {
						t.Fatalf("window at %d differs from reference at %d", p, p+int64(j))
					}
				}
				c.Advance(len(win) * amt / 255)
			case op == 3 && c != nil:
				c.Release()
				for j, cc := range curs {
					if cc == c {
						curs = append(curs[:j], curs[j+1:]...)
						break
					}
				}
			case op == 4 && c != nil:
				low := c.Pos()
				for _, cc := range curs {
					low = min(low, cc.Pos())
				}
				src.TrimBefore(low * int64(amt) / 255)
				armed = true
			case op == 5 && c != nil:
				from := c.Pos()
				got := src.MemoSuffix(from)
				if want := max(frontier-from, 0); int64(len(got)) != want {
					t.Fatalf("suffix from %d holds %d, consumed frontier is %d", from, len(got), frontier)
				}
				for j := range got {
					if got[j] != ref[from+int64(j)] {
						t.Fatalf("suffix differs from reference at %d", from+int64(j))
					}
				}
			}
			for _, cc := range curs {
				frontier = max(frontier, cc.Pos())
			}
		}
	})
}
