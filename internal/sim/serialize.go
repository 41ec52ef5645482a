package sim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/bpred"
	"repro/internal/codec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Checkpoint file format (little-endian throughout, via internal/codec):
//
//	magic     8 bytes  "IQCKPT1\n"
//	version   u32      CheckpointVersion
//	geometry  u64      GeometryFingerprint of the template configuration
//	ctxset    u64      ContextSetFingerprint of the ordered context set
//	config    bytes    length-prefixed JSON of the full sim.Config
//	nctx      u32      context count
//	per context, in order:
//	  workload  string
//	  seed      u64
//	  warm      i64    requested warmup length for this context
//	  pos       i64    warm frontier: instructions actually consumed
//	  predictor        bpred.Predictor section (self-describing)
//	  btb              bpred.BTB section (self-describing)
//	  memo      i64 + n×inst  ForkSource suffix beyond the frontier
//	hierarchy           mem.Hierarchy section (shared; per-cache, name-checked)
//	trailer   u32      ckptTrailer, then EOF
//
// A checkpoint template is an unstepped machine: warmed caches, trained
// branch structures, every context's stream at its frontier, simulated
// time still zero. Save enforces that shape, so the file never carries
// in-flight pipeline state and Load rebuilds the pipeline empty, exactly
// as NewCheckpoint leaves it. The geometry fingerprint is duplicated from
// the config so a store can match files without parsing JSON, and Load
// cross-checks the two against each other; the context-set fingerprint
// likewise pins the ordered (workload, seed, warm) set against the
// per-context sections that follow.
//
// Version 1 of the format carried exactly one context (workload/seed/warm
// directly in the header, no context-set fingerprint); this build rejects
// v1 files with a version error rather than guessing at their layout.

// CheckpointVersion is the current checkpoint file format version.
const CheckpointVersion = 2

const ckptTrailer uint32 = 0x54504b43 // "CKPT"

var ckptMagic = [8]byte{'I', 'Q', 'C', 'K', 'P', 'T', '1', '\n'}

// maxMemoSuffix bounds each carried memo suffix on decode. A template's
// suffix only grows while forked runs outpace it mid-sweep; at save time
// it is almost always empty, so anything enormous is corruption.
const maxMemoSuffix = 1 << 24

// GeometryFingerprint hashes the parts of the configuration a checkpoint's
// warmed state depends on: the memory hierarchy and the branch-structure
// geometry. Two configurations with equal fingerprints can fork from the
// same checkpoint; Fork enforces the same equality field-by-field.
func (cfg *Config) GeometryFingerprint() uint64 {
	b, err := json.Marshal(struct {
		Memory          any
		BranchPredictor any
		BTBEntries      int
		BTBWays         int
	}{cfg.Memory, cfg.BranchPredictor, cfg.BTBEntries, cfg.BTBWays})
	if err != nil {
		// All geometry fields are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("sim: geometry fingerprint: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// ContextSetFingerprint hashes an ordered context set: every workload
// name (length-prefixed, so the encoding is injective), seed and warm
// budget, in context order. Reordering the same contexts changes the
// fingerprint — the interleaved warmup makes order part of the machine
// state.
func ContextSetFingerprint(specs []ContextSpec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, sp := range specs {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(sp.Workload)))
		h.Write(buf[:])
		h.Write([]byte(sp.Workload))
		binary.LittleEndian.PutUint64(buf[:], sp.Seed)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(sp.Warm))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Save writes the checkpoint to w in the versioned binary format above.
// The template must be in canonical checkpoint shape: warmed but never
// stepped, every context's stream a fork cursor at its frontier.
func (ck *Checkpoint) Save(w io.Writer) error {
	t := ck.template
	if t.cycle != 0 || t.seq != 0 || t.inExec != 0 {
		return fmt.Errorf("sim: save requires an unstepped template (cycle %d, seq %d, inExec %d)",
			t.cycle, t.seq, t.inExec)
	}
	curs := make([]*trace.ForkCursor, len(t.ctxs))
	for i, th := range t.ctxs {
		cur, ok := th.stream.(*trace.ForkCursor)
		if !ok {
			return fmt.Errorf("sim: save requires fork-cursor streams, context %d has %T", i, th.stream)
		}
		curs[i] = cur
	}
	cfgJSON, err := json.Marshal(t.cfg)
	if err != nil {
		return fmt.Errorf("sim: encoding config: %w", err)
	}

	bw := bufio.NewWriter(w)
	cw := codec.NewWriter(bw)
	cw.Raw(ckptMagic[:])
	cw.U32(CheckpointVersion)
	cw.U64(t.cfg.GeometryFingerprint())
	cw.U64(ContextSetFingerprint(ck.specs))
	cw.Bytes(cfgJSON)
	cw.U32(uint32(len(t.ctxs)))
	for i, th := range t.ctxs {
		sp := ck.specs[i]
		cw.String(sp.Workload)
		cw.U64(sp.Seed)
		cw.I64(sp.Warm)
		cw.I64(ck.frontiers[i])
		th.bp.EncodeTo(cw)
		th.btb.EncodeTo(cw)
		// The cursor's own (source-relative) position is the frontier in
		// the source's coordinates whatever the construction path, so the
		// suffix read starts there.
		memo := curs[i].Source().MemoSuffix(curs[i].Pos())
		cw.I64(int64(len(memo)))
		for j := range memo {
			trace.EncodeInst(cw, &memo[j])
		}
	}
	if err := t.hier.EncodeTo(cw); err != nil {
		return err
	}
	cw.U32(ckptTrailer)
	if err := cw.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCheckpoint reads a checkpoint written by Save and rebuilds the
// warmed template: trained branch structures and cache contents come from
// the file, each context's instruction stream is regenerated from its
// (workload, seed) and fast-forwarded to the recorded frontier, and the
// pipeline starts empty at cycle zero. The result forks exactly like the
// checkpoint that was saved.
//
// want is the context set the caller expects the file to hold. Each
// context's (workload, seed, warm) must equal it, checked as soon as it
// is decoded: the frontier is bounded only by the warm budget, and the
// fast-forward to it regenerates that many instructions, so a file must
// not be able to name its own budget.
func LoadCheckpoint(r io.Reader, want []ContextSpec) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	cr := codec.NewReader(br)

	magic := cr.Raw(len(ckptMagic))
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint header: %w", err)
	}
	if string(magic) != string(ckptMagic[:]) {
		return nil, fmt.Errorf("sim: not a checkpoint file (bad magic %q)", magic)
	}
	if v := cr.U32(); v != CheckpointVersion {
		return nil, fmt.Errorf("sim: checkpoint format version %d, this build reads %d", v, CheckpointVersion)
	}
	fp := cr.U64()
	ctxFP := cr.U64()
	cfgJSON := cr.Bytes(1 << 20)
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("sim: reading checkpoint header: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint config: %w", err)
	}
	// json.Unmarshal forgives unknown keys, key case and duplicates, so
	// require the exact bytes Save writes: a config that parses but is
	// not its own encoding has been edited.
	if canon, err := json.Marshal(cfg); err != nil || !bytes.Equal(canon, cfgJSON) {
		return nil, fmt.Errorf("sim: checkpoint config is not in canonical form")
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: checkpoint config invalid: %w", err)
	}
	if got := cfg.GeometryFingerprint(); got != fp {
		return nil, fmt.Errorf("sim: checkpoint geometry fingerprint %016x does not match its config (%016x)", fp, got)
	}

	nctx := cr.U32()
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if nctx < 1 || int(nctx) != len(want) {
		return nil, fmt.Errorf("sim: checkpoint holds %d contexts, wanted %d", nctx, len(want))
	}
	specs := make([]ContextSpec, nctx)
	poss := make([]int64, nctx)
	bps := make([]*bpred.Predictor, nctx)
	btbs := make([]*bpred.BTB, nctx)
	memos := make([][]isa.Inst, nctx)
	for i := range specs {
		specs[i].Workload = cr.String(256)
		specs[i].Seed = cr.U64()
		specs[i].Warm = cr.I64()
		poss[i] = cr.I64()
		if err := cr.Err(); err != nil {
			return nil, err
		}
		if specs[i] != want[i] {
			return nil, fmt.Errorf("sim: checkpoint context %d is %+v, wanted %+v", i, specs[i], want[i])
		}
		if poss[i] < 0 || poss[i] > specs[i].Warm {
			return nil, fmt.Errorf("sim: checkpoint context %d frontier %d inconsistent with warmup %d",
				i, poss[i], specs[i].Warm)
		}
		bp, err := bpred.DecodePredictor(cr, cfg.BranchPredictor)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint context %d: %w", i, err)
		}
		bps[i] = bp
		btb, err := bpred.DecodeBTB(cr, cfg.BTBEntries, cfg.BTBWays)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint context %d: %w", i, err)
		}
		btbs[i] = btb
		nMemo := cr.I64()
		if err := cr.Err(); err != nil {
			return nil, err
		}
		if nMemo < 0 || nMemo > maxMemoSuffix {
			return nil, fmt.Errorf("sim: checkpoint context %d memo suffix length %d implausible", i, nMemo)
		}
		// Grow the memo as instructions actually decode rather than
		// trusting the length field: a corrupt length then costs at most
		// what the file's remaining bytes can encode, not a huge up-front
		// allocation.
		var memo []isa.Inst
		for j := int64(0); j < nMemo; j++ {
			in, err := trace.DecodeInst(cr)
			if err != nil {
				return nil, err
			}
			memo = append(memo, in)
		}
		memos[i] = memo
	}
	if got := ContextSetFingerprint(specs); got != ctxFP {
		return nil, fmt.Errorf("sim: checkpoint context-set fingerprint %016x does not match its contexts (%016x)", ctxFP, got)
	}
	hier, err := mem.DecodeHierarchy(cr, cfg.Memory)
	if err != nil {
		return nil, err
	}
	if tr := cr.U32(); cr.Err() == nil && tr != ckptTrailer {
		return nil, fmt.Errorf("sim: checkpoint trailer %08x corrupt", tr)
	}
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("sim: trailing bytes after checkpoint")
	}

	robEach, lsqEach := cfg.forContexts(int(nctx))
	q, err := cfg.buildQueue()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:  cfg,
		q:    q,
		hier: hier,
		fus:  pipeline.NewFUPool(cfg.FUPerClass),
	}
	for i, sp := range specs {
		base, err := trace.New(sp.Workload, sp.Seed)
		if err != nil {
			return nil, err
		}
		src, err := trace.ResumeForkSource(base, poss[i], memos[i])
		if err != nil {
			return nil, err
		}
		cur := src.Fork()
		src.TrimBefore(0)
		th, err := e.newContext(i, cur, robEach, lsqEach, bps[i], btbs[i])
		if err != nil {
			return nil, err
		}
		th.workload = sp.Workload
		e.ctxs = append(e.ctxs, th)
	}
	e.bindCallbacks()
	return &Checkpoint{template: e, specs: specs, frontiers: poss}, nil
}
