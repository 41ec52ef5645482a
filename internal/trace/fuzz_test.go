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
