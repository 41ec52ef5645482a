package bpred

import (
	"fmt"

	"repro/internal/codec"
)

// Checkpoint serialization: the branch structures are the bulk of a warmed
// machine's trained state, so they encode their full table contents — the
// same state Clone deep-copies. Each section is self-describing (the
// predictor writes its own Config, the BTB its geometry) and checked on
// decode against the machine being restored, so a file whose
// branch-structure geometry drifted from its header is rejected here
// rather than producing a silently mistrained machine.

// EncodeTo writes the predictor's configuration, tables and statistics.
func (p *Predictor) EncodeTo(w *codec.Writer) {
	w.Int(p.cfg.GlobalHistBits)
	w.Int(p.cfg.LocalHistBits)
	w.Int(p.cfg.LocalEntries)
	w.Int(p.cfg.ChoiceHistBits)
	w.Int(p.cfg.LocalCtrBits)
	w.Int(p.cfg.GlobalCtrBits)
	w.Int(p.cfg.ChoiceCtrBits)
	w.U32(p.globalHist)
	for _, c := range p.globalPHT {
		w.U32(c.Value())
	}
	for _, h := range p.localHist {
		w.U32(h)
	}
	for _, c := range p.localPHT {
		w.U32(c.Value())
	}
	for _, c := range p.choicePHT {
		w.U32(c.Value())
	}
	w.U64(p.lookups)
	w.U64(p.correct)
	w.U64(p.globalUsed)
	w.U64(p.localUsed)
}

// DecodePredictor reads a predictor written by EncodeTo. The encoded
// configuration must equal want, the configuration of the machine being
// restored; it is checked before any table is allocated, so a corrupt
// size field cannot cost a huge allocation.
func DecodePredictor(r *codec.Reader, want Config) (*Predictor, error) {
	cfg := Config{
		GlobalHistBits: r.Int(),
		LocalHistBits:  r.Int(),
		LocalEntries:   r.Int(),
		ChoiceHistBits: r.Int(),
		LocalCtrBits:   r.Int(),
		GlobalCtrBits:  r.Int(),
		ChoiceCtrBits:  r.Int(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if cfg != want {
		return nil, fmt.Errorf("bpred: decoded predictor geometry %+v does not match the machine's %+v", cfg, want)
	}
	p, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	p.globalHist = r.U32()
	decodeCounters(r, p.globalPHT)
	for i := range p.localHist {
		p.localHist[i] = r.U32()
	}
	decodeCounters(r, p.localPHT)
	decodeCounters(r, p.choicePHT)
	p.lookups = r.U64()
	p.correct = r.U64()
	p.globalUsed = r.U64()
	p.localUsed = r.U64()
	return p, r.Err()
}

// decodeCounters reads one table of counter values. A value above the
// counter's saturation point is corruption: Set would clamp it, so the
// file would load as a machine it does not encode.
func decodeCounters(r *codec.Reader, cs []SatCounter) {
	for i := range cs {
		v := r.U32()
		if v > cs[i].Max() {
			r.Fail("bpred: decoded counter value %d exceeds its maximum %d", v, cs[i].Max())
			return
		}
		cs[i].Set(v)
	}
}

// EncodeTo writes the BTB's geometry, entries and statistics.
func (b *BTB) EncodeTo(w *codec.Writer) {
	w.Int(b.sets * b.ways)
	w.Int(b.ways)
	for i := range b.lines {
		e := &b.lines[i]
		w.Bool(e.valid)
		w.U64(e.tag)
		w.U64(e.target)
		w.U64(e.lru)
	}
	w.U64(b.lookups)
	w.U64(b.hits)
	w.U64(b.stamp)
}

// DecodeBTB reads a BTB written by EncodeTo. The encoded geometry must
// equal the machine's (wantEntries, wantWays), checked before the entry
// array is allocated.
func DecodeBTB(r *codec.Reader, wantEntries, wantWays int) (*BTB, error) {
	entries, ways := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if entries != wantEntries || ways != wantWays {
		return nil, fmt.Errorf("bpred: decoded BTB geometry %d/%d does not match the machine's %d/%d",
			entries, ways, wantEntries, wantWays)
	}
	b, err := NewBTB(entries, ways)
	if err != nil {
		return nil, err
	}
	for i := range b.lines {
		e := &b.lines[i]
		e.valid = r.Bool()
		e.tag = r.U64()
		e.target = r.U64()
		e.lru = r.U64()
	}
	b.lookups = r.U64()
	b.hits = r.U64()
	b.stamp = r.U64()
	return b, r.Err()
}
