package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chunkInsts is the committed-instruction slice one Step-timing chunk
// covers in a traced run.
const chunkInsts = 200

// countingStream counts the instructions a machine reads from its trace.
type countingStream struct {
	trace.Stream
	n *int64
}

func (c countingStream) Next() (isa.Inst, bool) {
	*c.n++
	return c.Stream.Next()
}

// stepRun is one Step-driven machine: its set-up (trace.New, NewEngine,
// Warm) and detailed-phase host times and its simulated result.
type stepRun struct {
	setup, detailed time.Duration
	res             *sim.Result
	skipped         int64
	nextCalls       int64
	// chunks are the detailed phase's host times per slice of chunkInsts
	// committed instructions. The slices fall on the same simulated
	// cycles in every repeat of a spec.
	chunks []time.Duration
}

// runSpec builds, warms and steps the machine sp describes. With tr set,
// each call into a layer is a span, the trace reads are counted and the
// Step loop is timed in chunks of chunkInsts committed instructions.
func runSpec(sp spec, seed uint64, tr *tracer) (*stepRun, error) {
	r := &stepRun{}
	t0 := time.Now()
	streams := make([]trace.Stream, len(sp.contexts))
	for i, wl := range sp.contexts {
		tr.begin("trace.New")
		s, err := trace.New(wl, seed+uint64(i))
		tr.end()
		if err != nil {
			return nil, err
		}
		if tr != nil {
			s = countingStream{Stream: s, n: &r.nextCalls}
		}
		streams[i] = s
	}
	tr.begin("sim.NewEngine")
	e, err := sim.NewEngine(sp.cfg, streams)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("sim.Engine.Warm")
	e.Warm(streams, sp.warm)
	tr.end()
	t1 := time.Now()

	// The same stuck-machine valve as the engine's own run loop.
	limit := sp.n*400 + 1_000_000
	tr.beginRT("sim.run")
	tr.begin("sim.Engine.Step")
	next, chunkStart := int64(chunkInsts), t1
	for e.Committed() < sp.n {
		if e.Cycle() > limit {
			return nil, fmt.Errorf("%s: no forward progress after %d cycles", sp.cfg.Queue, e.Cycle())
		}
		e.Step()
		if c := e.Committed(); c >= next && c < sp.n {
			tr.end()
			now := time.Now()
			r.chunks = append(r.chunks, now.Sub(chunkStart))
			next, chunkStart = next+chunkInsts, now
			tr.begin("sim.Engine.Step")
		}
	}
	tr.end() // the last chunk
	tr.end() // sim.run
	r.detailed = time.Since(t1)
	r.chunks = append(r.chunks, time.Since(chunkStart))
	r.setup = t1.Sub(t0)
	r.skipped = e.SkippedCycles()

	// Engine exports no result report of its own. Processor.Run on a
	// machine that has already committed n instructions steps no further
	// and returns the report iqsim.Run would.
	r.res, err = (&sim.Processor{Engine: e}).Run(sp.n)
	return r, err
}

// recorded is a result in the form a sweep's shard file stores it.
func recorded(r *sim.Result) *experiments.RecordedResult {
	return &experiments.RecordedResult{Workload: r.Workload, QueueName: r.QueueName,
		Instructions: r.Instructions, Cycles: r.Cycles, IPC: r.IPC, Stats: r.Stats.Values()}
}

// digest fingerprints a value's JSON encoding, which for results is
// exact: Go writes map keys sorted and floats in round-trip form.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// options is the sweep's experiments configuration: one worker, so the
// figures measure the simulator and not the host's spare cores.
func (w *workload) options(seed uint64) experiments.Options {
	return experiments.Options{Instructions: w.run.n, Warmup: w.run.warm, Seed: seed,
		Benchmarks: w.benchmarks, Parallel: 1}
}

// contextSets returns the distinct context sets a grid warms, in plan
// order. A single-run workload is a one-point grid over its own set.
func (w *workload) contextSets(seed uint64, tr *tracer) ([]string, int, error) {
	if !w.sweep() {
		return []string{strings.Join(w.run.contexts, "+")}, 1, nil
	}
	tr.begin("experiments.GridPlan")
	_, jobs, err := experiments.GridPlan(w.options(seed), w.experiment)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	var sets []string
	seen := make(map[string]bool)
	for _, j := range jobs {
		if !seen[j.Workload] {
			seen[j.Workload] = true
			sets = append(sets, j.Workload)
		}
	}
	return sets, len(jobs), nil
}

// warmCheckpoints runs sim.NewCheckpoint once per context set at the
// workload's warm budget: the warmup a sweep pays per set before it
// forks the set's grid points.
func (w *workload) warmCheckpoints(sets []string, seed uint64, tr *tracer) ([]*sim.Checkpoint, time.Duration, error) {
	t0 := time.Now()
	cks := make([]*sim.Checkpoint, 0, len(sets))
	for _, set := range sets {
		parts := strings.Split(set, "+")
		specs := make([]sim.ContextSpec, len(parts))
		for i, p := range parts {
			specs[i] = sim.ContextSpec{Workload: p, Seed: seed + uint64(i), Warm: w.run.warm}
		}
		tr.begin("sim.NewCheckpoint")
		ck, err := sim.NewCheckpoint(w.run.cfg, specs...)
		tr.end()
		if err != nil {
			return nil, 0, err
		}
		cks = append(cks, ck)
	}
	return cks, time.Since(t0), nil
}

// sweepRun is one experiments.RunShard call over the whole grid.
type sweepRun struct {
	d         time.Duration
	sf        *experiments.ShardFile
	digest    string
	committed int64
}

func (w *workload) runSweep(seed uint64, ps *sim.PrefixStats, tr *tracer) (*sweepRun, error) {
	o := w.options(seed)
	o.PrefixStats = ps
	tr.beginRT("experiments.RunShard")
	t0 := time.Now()
	sf, err := experiments.RunShard(o, w.experiment, 0, 1)
	d := time.Since(t0)
	tr.end()
	if err != nil {
		return nil, err
	}
	b, err := sf.MarshalPretty()
	if err != nil {
		return nil, err
	}
	r := &sweepRun{d: d, sf: sf, digest: digestBytes(b)}
	for _, res := range sf.Results {
		r.committed += res.Instructions
	}
	return r, nil
}

func kips(committed int64, d time.Duration) float64 {
	return float64(committed) / d.Seconds() / 1e3
}
