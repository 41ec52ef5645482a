// Package pipeline provides the out-of-order core substrate around the
// instruction queue: register renaming, the reorder buffer, function-unit
// pools, the load/store queue, and the fetch/decode front end (Table 1's
// pipeline).
package pipeline

import (
	"repro/internal/isa"
	"repro/internal/uop"
)

// Renamer maps architectural registers to their most recent in-flight
// producers, wiring Prod edges onto dispatched uops. Pointer-based
// renaming eliminates WAW and WAR hazards exactly as a large physical
// register file would (the paper gives the machine separate physical
// register resources and never makes them a bottleneck).
type Renamer struct {
	last [isa.NumRegs]*uop.UOp
}

// NewRenamer returns an empty rename table.
func NewRenamer() *Renamer { return &Renamer{} }

// Rename resolves u's source operands against the table and records u as
// the producer of its destination. It is idempotent per uop (dispatch
// stalls retry in order).
func (r *Renamer) Rename(u *uop.UOp, cycle int64) {
	if u.Renamed {
		return
	}
	u.Renamed = true
	for j := 0; j < 2; j++ {
		src := u.Src(j)
		if src == isa.RegNone || src == isa.RegZero {
			continue
		}
		if p := r.last[src]; p != nil && (p.Complete == uop.NotYet || p.Complete > cycle) {
			u.Prod[j] = p
		}
	}
	if u.Inst.HasDest() {
		r.last[u.Inst.Dest] = u
	}
}

// Retire drops u from the table at commit if it is still the latest
// producer of its destination. Rename would not link a committed
// producer anyway (its completion has passed), so this changes no edge;
// it keeps the table from naming a uop the front end may reuse.
func (r *Renamer) Retire(u *uop.UOp) {
	if u.Inst.HasDest() && r.last[u.Inst.Dest] == u {
		r.last[u.Inst.Dest] = nil
	}
}

// Refers reports whether a table row names u (a checking aid for uop
// reuse).
func (r *Renamer) Refers(u *uop.UOp) bool {
	for _, p := range r.last {
		if p == u {
			return true
		}
	}
	return false
}
