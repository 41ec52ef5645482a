// Package coord is the distributed sweep coordinator: one server
// enumerates an experiment's grid once,
// workers pull job keys under time-bounded leases, simulate them, and
// upload result fragments the server accumulates into the exact file a
// single-process RunShard(0,1) run would have written.
//
// The design carries over the two contracts the PR 4/5 sharding stack
// established and adds a third:
//
//   - Reproducibility: simulations are deterministic and jobs
//     independent, so however the grid is partitioned, re-leased, or
//     raced, the merged output is byte-identical to the single-process
//     run (the final file is produced by the same ShardFile marshal).
//   - Durability: a completed fragment is spooled to disk (atomic
//     temp+rename, the DirStore discipline) before it is acknowledged,
//     and a restarting coordinator reloads the spool — a dead
//     coordinator never loses finished work, and zero completed jobs
//     are re-simulated after a restart.
//   - Liveness: leases expire. A worker that crashes (or loses its
//     network) simply stops renewing; the coordinator re-queues its
//     jobs for the next lease request, so abandoned work is never
//     stranded. Completions are idempotent — if a re-leased job is
//     finished twice, the first result wins (both are identical by
//     determinism anyway).
//
// Assignment is cost-weighted: jobs are handed out most-expensive
// first (longest-processing-time order), each priced at its measured
// instructions times its hardware contexts, with ties broken by key.
// The order depends only on the grid. Compared with the static
// round-robin `-shard i/n` split, the straggler shard shrinks: the
// expensive points spread across workers first and the cheap tail
// load-balances itself.
package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// DefaultLeaseTTL bounds how long a worker may sit on a leased job
// without renewing before the job is re-queued.
const DefaultLeaseTTL = 60 * time.Second

// maxFragmentBytes bounds one uploaded fragment.
const maxFragmentBytes = 1 << 30

// Config describes the sweep a coordinator serves.
type Config struct {
	// Experiment names the grid (one of experiments.Experiments).
	Experiment string
	// Options are the run options every worker must reproduce; the
	// coordinator publishes them on /spec.
	Options experiments.Options
	// SpoolDir durably holds completed fragments. Required: it is what
	// makes a coordinator crash lose nothing.
	SpoolDir string
	// LeaseTTL bounds a lease between renewals; zero means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxLease caps the jobs handed out per lease request (workers may
	// ask for fewer). Zero means 4.
	MaxLease int
	// Now is the clock, swappable by tests; nil means time.Now.
	Now func() time.Time
	// Logf receives progress lines (leases, expiries, completions);
	// nil discards them.
	Logf func(format string, args ...any)
}

// Spec is what GET /spec returns: everything a worker needs to
// reproduce the coordinator's run options, plus the lease TTL its
// heartbeats must beat.
type Spec struct {
	Experiment   string
	Instructions int64
	Warmup       int64
	Seed         uint64
	Benchmarks   []string `json:",omitempty"`
	LeaseTTLMs   int64
}

// LeaseRequest asks for up to Max jobs on behalf of Worker.
type LeaseRequest struct {
	Worker string
	Max    int
}

// LeaseResponse grants jobs (possibly none). Done reports that the
// whole grid is complete, so the worker can exit; an empty grant with
// Done=false means "all remaining work is leased elsewhere — poll
// again" (a lease may expire back into the queue).
type LeaseResponse struct {
	Jobs       []string `json:",omitempty"`
	LeaseTTLMs int64
	Done       bool
}

// RenewRequest extends Worker's leases on Jobs.
type RenewRequest struct {
	Worker string
	Jobs   []string
}

// RenewResponse lists which of the requested jobs were renewed and
// which were lost (expired and re-leased, or already completed).
type RenewResponse struct {
	Renewed []string `json:",omitempty"`
	Lost    []string `json:",omitempty"`
}

// CompleteResponse acknowledges an uploaded fragment.
type CompleteResponse struct {
	// Accepted counts newly recorded jobs; Duplicates counts jobs the
	// coordinator already had (idempotent re-completion, first wins).
	Accepted   int
	Duplicates int
	// Done reports grid completion after this fragment.
	Done bool
}

// Progress is the live /progress report.
type Progress struct {
	Experiment string
	Total      int
	Done       int
	Leased     int
	Pending    int
	Complete   bool
	// Workers maps worker name → its current lease/completion counts.
	Workers map[string]*WorkerProgress `json:",omitempty"`
}

// WorkerProgress is one worker's slice of the progress report.
type WorkerProgress struct {
	Leased    int
	Completed int
	// IdleMs is how long ago the worker was last heard from.
	IdleMs int64
}

type lease struct {
	worker  string
	expires time.Time
}

// Server is the coordinator. Create with NewServer, mount via Handler,
// wait on Done, read the result with Merged.
type Server struct {
	cfg  Config
	spec Spec

	mu       sync.Mutex
	merged   *experiments.ShardFile // accumulates completed results
	rank     map[string]int         // job key → cost order position
	workload map[string]string      // job key → "+"-joined context set
	pending  []string               // unleased, undone keys, cost order
	leases   map[string]*lease      // leased keys
	workers  map[string]*workerState
	fragSeq  int
	done     chan struct{}
	closed   bool
}

type workerState struct {
	lastSeen  time.Time
	completed int
}

// NewServer enumerates the experiment's grid, orders it by estimated
// cost, recovers any fragments already spooled in SpoolDir (a restart
// resumes exactly where the previous coordinator stopped), and returns
// a ready-to-serve coordinator.
func NewServer(cfg Config) (*Server, error) {
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("coord: SpoolDir is required (it is what makes completed work durable)")
	}
	skeleton, jobs, err := experiments.GridPlan(cfg.Options, cfg.Experiment)
	if err != nil {
		return nil, err
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxLease <= 0 {
		cfg.MaxLease = 4
	}
	s := &Server{
		cfg:    cfg,
		merged: skeleton,
		spec: Spec{
			Experiment:   cfg.Experiment,
			Instructions: cfg.Options.Instructions,
			Warmup:       cfg.Options.Warmup,
			Seed:         cfg.Options.Seed,
			Benchmarks:   cfg.Options.Benchmarks,
			LeaseTTLMs:   cfg.LeaseTTL.Milliseconds(),
		},
		rank:     make(map[string]int, len(jobs)),
		workload: make(map[string]string, len(jobs)),
		leases:   make(map[string]*lease),
		workers:  make(map[string]*workerState),
		done:     make(chan struct{}),
	}
	// Most-expensive-first, key order breaking ties so every restart
	// derives the identical queue.
	order := make([]JobCost, len(jobs))
	for i, j := range jobs {
		s.workload[j.Key] = j.Workload
		order[i] = JobCost{Key: j.Key, Cost: s.cost(j.Key)}
	}
	sort.SliceStable(order, func(i, k int) bool {
		if order[i].Cost != order[k].Cost {
			return order[i].Cost > order[k].Cost
		}
		return order[i].Key < order[k].Key
	})
	s.pending = make([]string, len(order))
	for i, jc := range order {
		s.rank[jc.Key] = i
		s.pending[i] = jc.Key
	}
	if err := s.recoverSpool(); err != nil {
		return nil, err
	}
	return s, nil
}

// JobCost pairs a job key with its estimated cost; exported for tests
// and tooling that want to inspect assignment order.
type JobCost struct {
	Key  string
	Cost float64
}

// Queue returns the current pending queue in assignment order (a
// copy). Diagnostic; the authoritative state lives behind the mutex.
func (s *Server) Queue() []JobCost {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobCost, len(s.pending))
	for i, k := range s.pending {
		out[i] = JobCost{Key: k, Cost: s.cost(k)}
	}
	return out
}

// cost prices a job for assignment order: its measured instructions
// times its hardware contexts.
func (s *Server) cost(key string) float64 {
	return float64(s.cfg.Options.Instructions) * float64(experiments.ContextCount(s.workload[key]))
}

func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// recoverSpool replays every fragment a previous coordinator process
// acknowledged. Fragments were written atomically, so each file is
// either complete and valid or absent; anything unreadable is renamed
// aside rather than trusted.
func (s *Server) recoverSpool() error {
	ents, err := os.ReadDir(s.cfg.SpoolDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, "frag_") && strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.cfg.SpoolDir, name)
		b, err := os.ReadFile(path)
		var frag *experiments.ShardFile
		if err == nil {
			frag, err = s.parseFragment(b)
		}
		if err != nil {
			// Spooled by an earlier, incompatible build or damaged out of
			// band. Keep it for forensics but do not let it poison the run.
			s.logf("[coord: quarantining unreadable spool fragment %s: %v]", name, err)
			os.Rename(path, path+".bad")
			continue
		}
		acc, dup := s.accumulateLocked(frag)
		s.logf("[coord: recovered %s: %d jobs (%d duplicate)]", name, acc, dup)
		if seq := fragSeq(name); seq >= s.fragSeq {
			s.fragSeq = seq + 1
		}
	}
	if len(names) > 0 {
		s.logf("[coord: spool recovery: %d/%d jobs already complete]",
			len(s.merged.Results), s.merged.TotalJobs)
	}
	s.finishIfCompleteLocked()
	return nil
}

func fragSeq(name string) int {
	var seq int
	if _, err := fmt.Sscanf(name, "frag_%d.json", &seq); err != nil {
		return -1
	}
	return seq
}

// parseFragment decodes and validates one uploaded fragment: schema,
// header agreement with the coordinator's own grid plan, and every
// result key a member of the grid.
func (s *Server) parseFragment(body []byte) (*experiments.ShardFile, error) {
	frag := new(experiments.ShardFile)
	if err := json.Unmarshal(body, frag); err != nil {
		return nil, fmt.Errorf("coord: fragment does not parse: %v", err)
	}
	if frag.Schema != experiments.ShardSchema {
		return nil, fmt.Errorf("coord: fragment schema %d, this coordinator speaks %d",
			frag.Schema, experiments.ShardSchema)
	}
	if frag.Header() != s.merged.Header() {
		return nil, fmt.Errorf("coord: fragment header mismatch:\n  got  %s\n  want %s",
			frag.Header(), s.merged.Header())
	}
	for key := range frag.Results {
		if _, ok := s.rank[key]; !ok {
			return nil, fmt.Errorf("coord: fragment result %q is not in %s's grid", key, s.cfg.Experiment)
		}
	}
	return frag, nil
}

// accumulateLocked folds a validated fragment into the merged result
// set: new keys are recorded (and released from lease/pending), known
// keys count as duplicates and keep their first result. Caller holds
// (or, during construction, owns) the state.
func (s *Server) accumulateLocked(frag *experiments.ShardFile) (accepted, duplicates int) {
	for key, r := range frag.Results {
		if s.merged.Results[key] != nil {
			duplicates++
			continue
		}
		s.merged.Results[key] = r
		accepted++
		delete(s.leases, key)
		s.removePendingLocked(key)
	}
	return accepted, duplicates
}

func (s *Server) removePendingLocked(key string) {
	for i, k := range s.pending {
		if k == key {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// requeueLocked returns an expired job to the pending queue at its
// cost-order position.
func (s *Server) requeueLocked(key string) {
	pos := sort.Search(len(s.pending), func(i int) bool {
		return s.rank[s.pending[i]] >= s.rank[key]
	})
	s.pending = append(s.pending, "")
	copy(s.pending[pos+1:], s.pending[pos:])
	s.pending[pos] = key
}

// expireLocked re-queues every lease whose deadline has passed. Called
// from every state-touching handler, so expiry needs no background
// goroutine and is deterministic under an injected clock.
func (s *Server) expireLocked(now time.Time) {
	for key, l := range s.leases {
		if now.After(l.expires) {
			delete(s.leases, key)
			s.requeueLocked(key)
			s.logf("[coord: re-leased %s (lease by %s expired)]", key, l.worker)
		}
	}
}

func (s *Server) finishIfCompleteLocked() {
	if !s.closed && len(s.merged.Results) == s.merged.TotalJobs {
		s.closed = true
		close(s.done)
		s.logf("[coord: grid complete: %d jobs]", s.merged.TotalJobs)
	}
}

// Done is closed once every grid job has a result.
func (s *Server) Done() <-chan struct{} { return s.done }

// Merged returns the accumulated shard file. Only complete and
// immutable after Done; callers before that get a snapshot reference
// they must not hold across handler activity.
func (s *Server) Merged() *experiments.ShardFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merged
}

// touchWorkerLocked records a sighting of the worker.
func (s *Server) touchWorkerLocked(name string, now time.Time) *workerState {
	if name == "" {
		name = "anonymous"
	}
	w := s.workers[name]
	if w == nil {
		w = &workerState{}
		s.workers[name] = w
	}
	w.lastSeen = now
	return w
}

// Handler returns the coordinator's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/spec", s.handleSpec)
	mux.HandleFunc("/jobs/lease", s.handleLease)
	mux.HandleFunc("/jobs/renew", s.handleRenew)
	mux.HandleFunc("/jobs/complete", s.handleComplete)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/merged", s.handleMerged)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFragmentBytes)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.spec)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	max := req.Max
	if max <= 0 || max > s.cfg.MaxLease {
		max = s.cfg.MaxLease
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	s.touchWorkerLocked(req.Worker, now)
	resp := LeaseResponse{LeaseTTLMs: s.cfg.LeaseTTL.Milliseconds()}
	for len(resp.Jobs) < max && len(s.pending) > 0 {
		key := s.pending[0]
		s.pending = s.pending[1:]
		s.leases[key] = &lease{worker: req.Worker, expires: now.Add(s.cfg.LeaseTTL)}
		resp.Jobs = append(resp.Jobs, key)
	}
	resp.Done = len(s.merged.Results) == s.merged.TotalJobs
	if len(resp.Jobs) > 0 {
		s.logf("[coord: leased %d jobs to %s (%d pending, %d leased, %d/%d done)]",
			len(resp.Jobs), req.Worker, len(s.pending), len(s.leases),
			len(s.merged.Results), s.merged.TotalJobs)
	}
	writeJSON(w, resp)
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !readJSON(w, r, &req) {
		return
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	s.touchWorkerLocked(req.Worker, now)
	var resp RenewResponse
	for _, key := range req.Jobs {
		if l := s.leases[key]; l != nil && l.worker == req.Worker {
			l.expires = now.Add(s.cfg.LeaseTTL)
			resp.Renewed = append(resp.Renewed, key)
		} else {
			resp.Lost = append(resp.Lost, key)
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFragmentBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	frag, err := s.parseFragment(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Spool before acknowledging (and before mutating state): once the
	// worker sees 2xx, the results must survive any coordinator crash.
	if err := s.spoolLocked(body); err != nil {
		http.Error(w, fmt.Sprintf("spool: %v", err), http.StatusInternalServerError)
		return
	}
	s.expireLocked(now)
	worker := r.URL.Query().Get("worker")
	ws := s.touchWorkerLocked(worker, now)
	accepted, duplicates := s.accumulateLocked(frag)
	ws.completed += accepted
	s.finishIfCompleteLocked()
	s.logf("[coord: %s completed %d jobs (%d duplicate): %d/%d done]",
		worker, accepted, duplicates, len(s.merged.Results), s.merged.TotalJobs)
	writeJSON(w, CompleteResponse{
		Accepted:   accepted,
		Duplicates: duplicates,
		Done:       len(s.merged.Results) == s.merged.TotalJobs,
	})
}

// spoolLocked durably stores one fragment body under the next
// sequence number, temp+rename so a crash mid-write never leaves a
// torn file that recovery would have to guess about.
func (s *Server) spoolLocked(body []byte) error {
	if err := os.MkdirAll(s.cfg.SpoolDir, 0o777); err != nil {
		return err
	}
	name := fmt.Sprintf("frag_%06d.json", s.fragSeq)
	tmp, err := os.CreateTemp(s.cfg.SpoolDir, name+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.cfg.SpoolDir, name)); err != nil {
		return err
	}
	s.fragSeq++
	return nil
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	p := Progress{
		Experiment: s.cfg.Experiment,
		Total:      s.merged.TotalJobs,
		Done:       len(s.merged.Results),
		Leased:     len(s.leases),
		Pending:    len(s.pending),
		Complete:   len(s.merged.Results) == s.merged.TotalJobs,
		Workers:    make(map[string]*WorkerProgress, len(s.workers)),
	}
	leasedBy := make(map[string]int)
	for _, l := range s.leases {
		leasedBy[l.worker]++
	}
	for name, ws := range s.workers {
		p.Workers[name] = &WorkerProgress{
			Leased:    leasedBy[name],
			Completed: ws.completed,
			IdleMs:    now.Sub(ws.lastSeen).Milliseconds(),
		}
	}
	writeJSON(w, p)
}

func (s *Server) handleMerged(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	complete := len(s.merged.Results) == s.merged.TotalJobs
	var b []byte
	var err error
	if complete {
		b, err = s.merged.MarshalPretty()
	}
	s.mu.Unlock()
	if !complete {
		http.Error(w, "grid not complete yet (see /progress)", http.StatusConflict)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
