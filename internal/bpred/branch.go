package bpred

import "fmt"

// Config describes the hybrid branch predictor of Table 1 ("Hybrid
// local/global (a la 21264)").
type Config struct {
	GlobalHistBits int // global history register width; PHT has 2^bits entries
	LocalHistBits  int // per-branch history width; local PHT has 2^bits entries
	LocalEntries   int // number of per-branch history registers (power of two)
	ChoiceHistBits int // choice PHT indexed by this many global history bits
	LocalCtrBits   int // local PHT counter width (3 on the 21264)
	GlobalCtrBits  int // global PHT counter width
	ChoiceCtrBits  int // choice PHT counter width
}

// DefaultConfig is the Table 1 configuration: 13-bit global history with an
// 8K-entry PHT, 2K 11-bit local histories with a 2K-entry PHT, and a
// 13-bit-history 8K-entry choice PHT.
func DefaultConfig() Config {
	return Config{
		GlobalHistBits: 13,
		LocalHistBits:  11,
		LocalEntries:   2048,
		ChoiceHistBits: 13,
		LocalCtrBits:   3,
		GlobalCtrBits:  2,
		ChoiceCtrBits:  2,
	}
}

func (c Config) validate() error {
	if c.GlobalHistBits < 1 || c.GlobalHistBits > 24 {
		return fmt.Errorf("bpred: global history bits %d out of range", c.GlobalHistBits)
	}
	if c.LocalHistBits < 1 || c.LocalHistBits > 24 {
		return fmt.Errorf("bpred: local history bits %d out of range", c.LocalHistBits)
	}
	if c.ChoiceHistBits < 1 || c.ChoiceHistBits > 24 {
		return fmt.Errorf("bpred: choice history bits %d out of range", c.ChoiceHistBits)
	}
	if c.LocalEntries <= 0 || c.LocalEntries&(c.LocalEntries-1) != 0 {
		return fmt.Errorf("bpred: local entries %d must be a positive power of two", c.LocalEntries)
	}
	for _, w := range []int{c.LocalCtrBits, c.GlobalCtrBits, c.ChoiceCtrBits} {
		if w < 1 || w > 31 {
			return fmt.Errorf("bpred: counter width %d out of range", w)
		}
	}
	return nil
}

// Predictor is the hybrid direction predictor. A choice table selects per
// prediction between a global-history predictor and a per-branch local
// history predictor.
type Predictor struct {
	cfg Config

	globalHist uint32
	globalPHT  []SatCounter
	localHist  []uint32
	localPHT   []SatCounter
	choicePHT  []SatCounter

	// Stats.
	lookups    uint64
	correct    uint64
	globalUsed uint64
	localUsed  uint64
}

// NewPredictor builds a predictor from cfg.
func NewPredictor(cfg Config) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:       cfg,
		globalPHT: make([]SatCounter, 1<<cfg.GlobalHistBits),
		localHist: make([]uint32, cfg.LocalEntries),
		localPHT:  make([]SatCounter, 1<<cfg.LocalHistBits),
		choicePHT: make([]SatCounter, 1<<cfg.ChoiceHistBits),
	}
	for i := range p.globalPHT {
		p.globalPHT[i] = NewSatCounter(cfg.GlobalCtrBits, (1<<cfg.GlobalCtrBits)/2)
	}
	for i := range p.localPHT {
		p.localPHT[i] = NewSatCounter(cfg.LocalCtrBits, (1<<cfg.LocalCtrBits)/2)
	}
	for i := range p.choicePHT {
		p.choicePHT[i] = NewSatCounter(cfg.ChoiceCtrBits, (1<<cfg.ChoiceCtrBits)/2)
	}
	return p, nil
}

// MustNewPredictor is NewPredictor for known-good configs.
func MustNewPredictor(cfg Config) *Predictor {
	p, err := NewPredictor(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Predictor) globalIndex() uint32 {
	return p.globalHist & ((1 << p.cfg.GlobalHistBits) - 1)
}

func (p *Predictor) choiceIndex() uint32 {
	return p.globalHist & ((1 << p.cfg.ChoiceHistBits) - 1)
}

func (p *Predictor) localSlot(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.LocalEntries-1))
}

func (p *Predictor) localIndex(pc uint64) uint32 {
	return p.localHist[p.localSlot(pc)] & ((1 << p.cfg.LocalHistBits) - 1)
}

// Predict returns the predicted direction for the branch at pc. It does
// not modify any state; call Update with the resolved outcome.
func (p *Predictor) Predict(pc uint64) bool {
	if p.choicePHT[p.choiceIndex()].MSB() {
		return p.globalPHT[p.globalIndex()].MSB()
	}
	return p.localPHT[p.localIndex(pc)].MSB()
}

// Update trains the predictor with the resolved outcome of the branch at
// pc. The simulator's front end stalls on a misprediction until the branch
// resolves, so in-order immediate update is exact for this pipeline model.
func (p *Predictor) Update(pc uint64, taken bool) {
	gIdx := p.globalIndex()
	lIdx := p.localIndex(pc)
	cIdx := p.choiceIndex()

	gPred := p.globalPHT[gIdx].MSB()
	lPred := p.localPHT[lIdx].MSB()
	useGlobal := p.choicePHT[cIdx].MSB()

	p.lookups++
	pred := lPred
	if useGlobal {
		pred = gPred
		p.globalUsed++
	} else {
		p.localUsed++
	}
	if pred == taken {
		p.correct++
	}

	// Train the choice table only when the component predictors disagree.
	if gPred != lPred {
		if gPred == taken {
			p.choicePHT[cIdx].Inc()
		} else {
			p.choicePHT[cIdx].Dec()
		}
	}
	// Train both components.
	if taken {
		p.globalPHT[gIdx].Inc()
		p.localPHT[lIdx].Inc()
	} else {
		p.globalPHT[gIdx].Dec()
		p.localPHT[lIdx].Dec()
	}
	// Shift histories.
	bit := uint32(0)
	if taken {
		bit = 1
	}
	p.globalHist = (p.globalHist << 1) | bit
	slot := p.localSlot(pc)
	p.localHist[slot] = (p.localHist[slot] << 1) | bit
}

// Accuracy returns the fraction of direction predictions that were correct.
func (p *Predictor) Accuracy() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.correct) / float64(p.lookups)
}

// Lookups returns the number of resolved predictions.
func (p *Predictor) Lookups() uint64 { return p.lookups }

// GlobalUseFraction returns how often the choice table selected the global
// component.
func (p *Predictor) GlobalUseFraction() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.globalUsed) / float64(p.lookups)
}
