package trace

import (
	"fmt"

	"repro/internal/isa"
)

// The kernel machinery expresses each synthetic workload as a loop nest of
// basic blocks of static instructions with fixed PCs. A kernelGen walks the
// blocks, evaluating per-instruction callbacks for memory addresses and
// branch outcomes, and emits the resulting dynamic instruction stream.

// maxFill bounds the instructions emitted while running one outer loop
// iteration; exceeding it indicates a template that never branches back to
// the top, which is a programming error in a benchmark constructor.
const maxFill = 1 << 20

type staticOp struct {
	class isa.Class
	src1  int
	src2  int
	dest  int
	size  uint8
	pc    uint64

	// addr computes the effective address of a memory op for this dynamic
	// instance.
	addr func() uint64
	// taken decides a branch's outcome for this dynamic instance. It is
	// invoked exactly once per emission, so it may advance counters.
	taken func() bool
	// target names the block this branch transfers to when taken; build
	// resolves it to the block's index and first PC.
	target      string
	targetBlock int
	targetPC    uint64
}

type basicBlock struct {
	label string
	ops   []staticOp
}

// kernelBuilder assembles a workload template. Benchmark constructors use
// it, then call build to obtain a generator.
type kernelBuilder struct {
	name   string
	base   uint64
	blocks []*basicBlock
	cur    *basicBlock
	err    error
}

func newKernel(name string, pcBase uint64) *kernelBuilder {
	return &kernelBuilder{name: name, base: pcBase}
}

// block starts a new basic block with the given label.
func (b *kernelBuilder) block(label string) {
	for _, blk := range b.blocks {
		if blk.label == label {
			b.fail("duplicate block label %q", label)
			return
		}
	}
	b.cur = &basicBlock{label: label}
	b.blocks = append(b.blocks, b.cur)
}

func (b *kernelBuilder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("trace: kernel %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

func (b *kernelBuilder) add(op staticOp) {
	if b.cur == nil {
		b.fail("instruction added before any block")
		return
	}
	b.cur.ops = append(b.cur.ops, op)
}

// op adds a register-to-register operation.
func (b *kernelBuilder) op(class isa.Class, dest, src1, src2 int) {
	b.add(staticOp{class: class, dest: dest, src1: src1, src2: src2})
}

// load adds a load of size bytes whose address register dependence is
// addrReg and whose dynamic address comes from addr.
func (b *kernelBuilder) load(dest, addrReg int, size uint8, addr func() uint64) {
	b.add(staticOp{class: isa.Load, dest: dest, src1: addrReg, src2: isa.RegNone, size: size, addr: addr})
}

// load2 adds a load whose address depends on two registers (base + index).
func (b *kernelBuilder) load2(dest, addrReg1, addrReg2 int, size uint8, addr func() uint64) {
	b.add(staticOp{class: isa.Load, dest: dest, src1: addrReg1, src2: addrReg2, size: size, addr: addr})
}

// store adds a store of dataReg to the address formed from addrReg.
func (b *kernelBuilder) store(dataReg, addrReg int, size uint8, addr func() uint64) {
	b.add(staticOp{class: isa.Store, dest: isa.RegNone, src1: dataReg, src2: addrReg, size: size, addr: addr})
}

// branch adds a conditional branch on condReg to the named block.
func (b *kernelBuilder) branch(condReg int, target string, taken func() bool) {
	b.add(staticOp{class: isa.Branch, dest: isa.RegNone, src1: condReg, src2: isa.RegNone, taken: taken, target: target})
}

// jump adds an always-taken branch to the named block.
func (b *kernelBuilder) jump(target string) {
	b.branch(isa.RegZero, target, func() bool { return true })
}

// build assigns PCs, resolves branch targets and returns the generator.
func (b *kernelBuilder) build() (*kernelGen, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.blocks) == 0 {
		return nil, fmt.Errorf("trace: kernel %s: no blocks", b.name)
	}
	labels := make(map[string]int, len(b.blocks))
	pc := b.base
	for i, blk := range b.blocks {
		labels[blk.label] = i
		for j := range blk.ops {
			blk.ops[j].pc = pc
			pc += 4
		}
	}
	for _, blk := range b.blocks {
		if len(blk.ops) == 0 {
			return nil, fmt.Errorf("trace: kernel %s: empty block %q", b.name, blk.label)
		}
	}
	for _, blk := range b.blocks {
		for j := range blk.ops {
			op := &blk.ops[j]
			if op.class == isa.Branch {
				t, ok := labels[op.target]
				if !ok {
					return nil, fmt.Errorf("trace: kernel %s: branch to unknown label %q", b.name, op.target)
				}
				op.targetBlock, op.targetPC = t, b.blocks[t].ops[0].pc
			}
			if op.class.IsMem() && op.addr == nil {
				return nil, fmt.Errorf("trace: kernel %s: memory op without address callback in %q", b.name, blk.label)
			}
		}
	}
	return &kernelGen{name: b.name, blocks: b.blocks}, nil
}

// mustBuild is build for the package's own benchmark constructors, whose
// templates are statically correct.
func (b *kernelBuilder) mustBuild() *kernelGen {
	g, err := b.build()
	if err != nil {
		panic(err)
	}
	return g
}

// kernelGen executes a kernel template, producing a Stream.
type kernelGen struct {
	name   string
	blocks []*basicBlock

	buf []isa.Inst
	pos int
}

// Name implements Stream.
func (g *kernelGen) Name() string { return g.name }

// Next implements Stream. Kernel streams never exhaust.
func (g *kernelGen) Next() (isa.Inst, bool) {
	if g.pos >= len(g.buf) {
		g.fill()
	}
	// Advance first and return the element directly: copying it into a
	// local before the increment makes the compiler stage it through two
	// stack temporaries, and that copy's cost swung by a third with code
	// placement elsewhere in the binary.
	g.pos++
	return g.buf[g.pos-1], true
}

// Window implements Windowed over the fill buffer: the rest of the
// current outer-loop iteration. Kernel streams never exhaust, so the
// window is never empty.
func (g *kernelGen) Window() []isa.Inst {
	if g.pos >= len(g.buf) {
		g.fill()
	}
	return g.buf[g.pos:]
}

// Advance implements Windowed.
func (g *kernelGen) Advance(n int) { g.pos += n }

// fill runs the template from the first block until control transfers back
// to it (one outer-loop iteration), buffering the emitted instructions.
func (g *kernelGen) fill() {
	g.buf = g.buf[:0]
	g.pos = 0
	bi := 0
	for {
		blk := g.blocks[bi]
		next := bi + 1
		transferred := false
		for j := range blk.ops {
			op := &blk.ops[j]
			in := isa.Inst{
				PC:    op.pc,
				Class: op.class,
				Src1:  op.src1,
				Src2:  op.src2,
				Dest:  op.dest,
				Size:  op.size,
			}
			if op.addr != nil {
				in.Addr = op.addr()
			}
			if op.class == isa.Branch {
				in.Taken = op.taken()
				in.Target = op.targetPC
				if in.Taken {
					next = op.targetBlock
					transferred = true
				}
			}
			g.buf = append(g.buf, in)
			if len(g.buf) > maxFill {
				panic(fmt.Sprintf("trace: kernel %s never returns to its top block", g.name))
			}
			if transferred {
				break
			}
		}
		if next == 0 && transferred {
			return // completed one outer iteration
		}
		if next >= len(g.blocks) {
			// Fell off the end without a back-branch: wrap to the top.
			return
		}
		bi = next
	}
}
