package bpred

import (
	"testing"
	"testing/quick"
)

func TestSatCounter(t *testing.T) {
	c := NewSatCounter(2, 0)
	if c.Max() != 3 {
		t.Fatalf("2-bit max = %d", c.Max())
	}
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Errorf("saturated value = %d, want 3", c.Value())
	}
	for i := 0; i < 10; i++ {
		c.Dec()
	}
	if c.Value() != 0 {
		t.Errorf("floored value = %d, want 0", c.Value())
	}
	c.Set(99)
	if c.Value() != 3 {
		t.Errorf("Set should clamp, got %d", c.Value())
	}
	c.Clear()
	if c.Value() != 0 {
		t.Error("Clear failed")
	}
}

func TestSatCounterMSB(t *testing.T) {
	// 2-bit: 0,1 -> false; 2,3 -> true.
	for v, want := range map[uint32]bool{0: false, 1: false, 2: true, 3: true} {
		c := NewSatCounter(2, v)
		if c.MSB() != want {
			t.Errorf("2-bit MSB(%d) = %v", v, c.MSB())
		}
	}
	// 3-bit: threshold at 4.
	if NewSatCounter(3, 3).MSB() || !NewSatCounter(3, 4).MSB() {
		t.Error("3-bit MSB threshold wrong")
	}
	// 1-bit.
	if NewSatCounter(1, 0).MSB() || !NewSatCounter(1, 1).MSB() {
		t.Error("1-bit MSB wrong")
	}
}

func TestSatCounterPanics(t *testing.T) {
	for _, bits := range []int{0, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d should panic", bits)
				}
			}()
			NewSatCounter(bits, 0)
		}()
	}
}

// Property: a counter never leaves [0, max].
func TestSatCounterBoundsProperty(t *testing.T) {
	f := func(ops []bool, bits uint8) bool {
		c := NewSatCounter(int(bits%8)+1, 0)
		for _, inc := range ops {
			if inc {
				c.Inc()
			} else {
				c.Dec()
			}
			if c.Value() > c.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictorConfigValidation(t *testing.T) {
	bad := []Config{
		{GlobalHistBits: 0, LocalHistBits: 11, LocalEntries: 2048, ChoiceHistBits: 13},
		{GlobalHistBits: 13, LocalHistBits: 0, LocalEntries: 2048, ChoiceHistBits: 13},
		{GlobalHistBits: 13, LocalHistBits: 11, LocalEntries: 1000, ChoiceHistBits: 13},
		{GlobalHistBits: 13, LocalHistBits: 11, LocalEntries: 2048, ChoiceHistBits: 0},
	}
	// Counter widths outside [1, 31] are an error, not a NewSatCounter panic.
	for _, set := range []func(*Config){
		func(c *Config) { c.LocalCtrBits = 0 },
		func(c *Config) { c.GlobalCtrBits = 32 },
		func(c *Config) { c.ChoiceCtrBits = -1 },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		bad = append(bad, cfg)
	}
	for i, cfg := range bad {
		if _, err := NewPredictor(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewPredictor(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPredictorLearnsAlwaysTaken(t *testing.T) {
	p := MustNewPredictor(DefaultConfig())
	pc := uint64(0x400100)
	for i := 0; i < 64; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Error("predictor failed to learn always-taken")
	}
	if p.Accuracy() < 0.9 {
		t.Errorf("accuracy %.2f on trivial pattern", p.Accuracy())
	}
	if p.Lookups() != 64 {
		t.Errorf("lookups = %d", p.Lookups())
	}
}

func TestPredictorLearnsLocalPattern(t *testing.T) {
	// Period-2 pattern (T,N,T,N,...) is unlearnable by a plain 2-bit
	// counter but trivial for a local-history predictor.
	p := MustNewPredictor(DefaultConfig())
	pc := uint64(0x400200)
	taken := false
	for i := 0; i < 400; i++ {
		taken = !taken
		p.Update(pc, taken)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		taken = !taken
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
	}
	if correct < 95 {
		t.Errorf("period-2 pattern accuracy %d/100, want near-perfect", correct)
	}
}

func TestPredictorLearnsGlobalCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: global
	// history captures it.
	p := MustNewPredictor(DefaultConfig())
	pcA, pcB := uint64(0x400300), uint64(0x400304)
	seq := []bool{true, true, false, true, false, false, true, false}
	for round := 0; round < 200; round++ {
		a := seq[round%len(seq)]
		p.Update(pcA, a)
		p.Update(pcB, a)
	}
	correct := 0
	for round := 0; round < 100; round++ {
		a := seq[round%len(seq)]
		p.Update(pcA, a)
		if p.Predict(pcB) == a {
			correct++
		}
		p.Update(pcB, a)
	}
	if correct < 90 {
		t.Errorf("correlated branch accuracy %d/100", correct)
	}
	if p.GlobalUseFraction() == 0 {
		t.Log("note: choice table never selected global; acceptable if local learned the merged pattern")
	}
}

func TestPredictorEmptyStats(t *testing.T) {
	p := MustNewPredictor(DefaultConfig())
	if p.Accuracy() != 0 || p.GlobalUseFraction() != 0 {
		t.Error("empty predictor stats should be 0")
	}
}

func TestBTBGeometryValidation(t *testing.T) {
	for _, g := range [][2]int{{0, 4}, {4096, 0}, {4097, 4}, {12, 4}} {
		if _, err := NewBTB(g[0], g[1]); err == nil {
			t.Errorf("geometry %v should be rejected", g)
		}
	}
	if _, err := NewBTB(4096, 4); err != nil {
		t.Errorf("Table 1 geometry rejected: %v", err)
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := MustNewBTB(4096, 4)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB should miss")
	}
	b.Insert(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("lookup = %#x,%v", tgt, ok)
	}
	// Overwrite same branch.
	b.Insert(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Errorf("overwrite failed: %#x", tgt)
	}
	if b.HitRate() <= 0 {
		t.Error("hit rate should be positive")
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	// Tiny BTB: 8 entries, 4 ways = 2 sets. Fill one set with 4 branches,
	// touch 3 of them, insert a 5th mapping to the same set: the untouched
	// one must be the victim.
	b := MustNewBTB(8, 4)
	// Set index = (pc>>2) & 1, so PCs with (pc>>2) even map to set 0.
	pcs := []uint64{0x00, 0x08, 0x10, 0x18} // all set 0
	for _, pc := range pcs {
		b.Insert(pc, pc+0x1000)
	}
	for _, pc := range pcs[1:] {
		if _, ok := b.Lookup(pc); !ok {
			t.Fatalf("expected hit for %#x", pc)
		}
	}
	b.Insert(0x20, 0x9000) // evicts LRU = 0x00
	if _, ok := b.Lookup(0x00); ok {
		t.Error("LRU entry should have been evicted")
	}
	for _, pc := range append(pcs[1:], 0x20) {
		if _, ok := b.Lookup(pc); !ok {
			t.Errorf("%#x should still be present", pc)
		}
	}
}

func TestBTBEmptyHitRate(t *testing.T) {
	if MustNewBTB(16, 4).HitRate() != 0 {
		t.Error("empty BTB hit rate should be 0")
	}
}

func TestHMPValidation(t *testing.T) {
	if _, err := NewHMP(1000, 13); err == nil {
		t.Error("non-power-of-two table should be rejected")
	}
	if _, err := NewHMP(1024, 16); err == nil {
		t.Error("threshold beyond 4-bit range should be rejected")
	}
}

func TestHMPBehaviour(t *testing.T) {
	h := MustNewHMP()
	pc := uint64(0x500000)
	// Fresh counter: must not predict hit (low confidence).
	if h.PredictHit(pc) {
		t.Error("cold HMP predicted hit")
	}
	// 13 hits: counter reaches 13, still not > 13.
	for i := 0; i < 13; i++ {
		h.Update(pc, true)
	}
	if h.PredictHit(pc) {
		t.Error("counter at 13 must not yet predict hit (paper: > 13)")
	}
	// One more hit: now predicts.
	h.Update(pc, true)
	if !h.PredictHit(pc) {
		t.Error("counter at 14 should predict hit")
	}
	// A single miss clears it.
	h.Update(pc, false)
	if h.PredictHit(pc) {
		t.Error("miss must clear confidence")
	}
	if h.ActualHitRate() <= 0.9 {
		t.Errorf("actual hit rate = %.2f", h.ActualHitRate())
	}
}

func TestHMPAccuracyAccounting(t *testing.T) {
	h := MustNewHMP()
	pcHit := uint64(0x500100)
	// Train to confidence, then observe many correct hit predictions.
	for i := 0; i < 20; i++ {
		h.PredictHit(pcHit)
		h.Update(pcHit, true)
	}
	if acc := h.HitPredictionAccuracy(); acc != 1.0 {
		t.Errorf("accuracy = %.3f, want 1.0", acc)
	}
	if cov := h.HitCoverage(); cov <= 0 || cov > 1 {
		t.Errorf("coverage = %.3f out of range", cov)
	}
	// Empty predictor stats.
	h2 := MustNewHMP()
	if h2.HitPredictionAccuracy() != 0 || h2.HitCoverage() != 0 || h2.ActualHitRate() != 0 {
		t.Error("empty HMP stats should be 0")
	}
}

func TestLRP(t *testing.T) {
	if _, err := NewLRP(100); err == nil {
		t.Error("non-power-of-two LRP should be rejected")
	}
	l := MustNewLRP()
	pc := uint64(0x600000)
	// Default weakly predicts left.
	if !l.PredictLeftLater(pc) {
		t.Error("default prediction should be left")
	}
	// Train toward right.
	for i := 0; i < 4; i++ {
		l.Update(pc, false)
	}
	if l.PredictLeftLater(pc) {
		t.Error("failed to learn right-later")
	}
	// Train back toward left.
	for i := 0; i < 4; i++ {
		l.Update(pc, true)
	}
	if !l.PredictLeftLater(pc) {
		t.Error("failed to re-learn left-later")
	}
	if l.Accuracy() <= 0 || l.Accuracy() >= 1 {
		t.Errorf("accuracy = %.3f; mixed training should be imperfect", l.Accuracy())
	}
	if MustNewLRP().Accuracy() != 0 {
		t.Error("empty LRP accuracy should be 0")
	}
}

// Property: HMP only reaches hit-prediction confidence through an unbroken
// run of at least threshold+1 hits.
func TestHMPConfidenceProperty(t *testing.T) {
	f := func(outcomes []bool) bool {
		h := MustNewHMP()
		pc := uint64(0x700000)
		run := 0
		for _, hit := range outcomes {
			h.Update(pc, hit)
			if hit {
				run++
			} else {
				run = 0
			}
			pred := h.PredictHit(pc)
			if pred && run < HMPDefaultThreshold+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictorRandomBranchBounded(t *testing.T) {
	// On a stream of i.i.d. random outcomes, no predictor can do much
	// better than 50%; check we are sane (not inverted, not stuck).
	p := MustNewPredictor(DefaultConfig())
	pc := uint64(0x400400)
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20000; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		p.Update(pc, state&1 == 1)
	}
	if acc := p.Accuracy(); acc < 0.40 || acc > 0.65 {
		t.Errorf("random-stream accuracy %.3f outside sane bounds", acc)
	}
}
