package experiments

import (
	"reflect"
	"testing"
)

func smtTestOptions() Options {
	return Options{Instructions: 1500, Warmup: 8000, Seed: 1, Benchmarks: []string{"swim+gcc"}}
}

// TestSMTShape: the SMT matrix covers every design × context count ×
// base set, with a per-context committed split that accounts for every
// retired instruction.
func TestSMTShape(t *testing.T) {
	o := smtTestOptions()
	sf := runGrid(t, o, "smt")
	// The header carries the grid's context count, so SMT shards can
	// never merge with single-threaded ones.
	if sf.Contexts != 4 {
		t.Fatalf("grid context count = %d, want 4", sf.Contexts)
	}
	r, err := SMTFrom(o, sf.SimResults())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Sets, []string{"swim+gcc"}) {
		t.Fatalf("sets = %v", r.Sets)
	}
	for _, d := range r.Designs {
		for _, nctx := range r.Contexts {
			ipc := r.IPC[d][nctx]["swim+gcc"]
			if ipc <= 0 {
				t.Errorf("%s/%dctx: IPC %v", d, nctx, ipc)
			}
			per := r.Committed[d][nctx]["swim+gcc"]
			if len(per) != nctx {
				t.Fatalf("%s/%dctx: %d per-context counts", d, nctx, len(per))
			}
			var sum int64
			for _, c := range per {
				sum += c
			}
			if sum < o.Instructions {
				t.Errorf("%s/%dctx: contexts committed %d total, budget %d", d, nctx, sum, o.Instructions)
			}
		}
	}
	if r.Table() == nil {
		t.Fatal("nil table")
	}
}

// TestSMTCheckpointDirSkipsWarmup: the SMT grid shares one checkpoint
// per (context set, geometry) through a store: the cold batch misses
// once per context set, the warm batch hits every time, results
// identical throughout.
func TestSMTCheckpointDirSkipsWarmup(t *testing.T) {
	o := smtTestOptions()
	plain := runGrid(t, o, "smt").Results

	o.CheckpointDir = t.TempDir()
	o.CkptStats = &CkptStats{}
	cold := runGrid(t, o, "smt").Results
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 0 || m != 2 {
		t.Fatalf("cold batch: hits=%d misses=%d, want 0/2 (one per context set)", h, m)
	}

	o.CkptStats = &CkptStats{}
	warm := runGrid(t, o, "smt").Results
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 2 || m != 0 {
		t.Fatalf("warm batch: hits=%d misses=%d, want 2/0", h, m)
	}

	if !reflect.DeepEqual(cold, plain) {
		t.Fatal("store-backed cold batch differs from in-memory batch")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("store-hit batch differs from the batch that built the store")
	}
}
