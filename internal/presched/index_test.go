package presched

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/isa"
	"repro/internal/uop"
)

// checkIndex verifies the scheduling array's indexes and the buffer's
// waiter chains against the rows and the buffer: every row's keys are
// its entries' Seqs, its minimum and minimum index match the smallest
// Seq recomputed from it, every tree node is the lesser of its children
// (the left on a tie) and the root is the linear argmin over the rows,
// exactly the rows with a free slot carry an open bit, total counts the
// buffer plus the array, and every parked ticket is reachable from its
// producer's WaitHead. No resident instruction, producer of a buffered
// one, issued instruction awaiting re-check or availability-table
// producer heads a stale chain. Valid between queue operations.
func (q *PreschedIQ) checkIndex() error {
	if err := q.sb.CheckChains(); err != nil {
		return err
	}
	if err := q.checkTree(); err != nil {
		return err
	}
	resident, open := len(q.buf), 0
	for r, row := range q.lines {
		if len(q.keys[r]) != len(row) {
			return fmt.Errorf("row %d holds %d entries and %d keys", r, len(row), len(q.keys[r]))
		}
		m, at := int64(math.MaxInt64), 0
		for i, x := range row {
			if q.keys[r][i] != x.Seq {
				return fmt.Errorf("row %d entry %d has Seq %d, key %d", r, i, x.Seq, q.keys[r][i])
			}
			if x.Seq < m {
				m, at = x.Seq, i
			}
			if err := q.sb.CheckHead(x); err != nil {
				return err
			}
		}
		if q.rowMin(r) != m {
			return fmt.Errorf("row %d records minimum %d, its entries give %d", r, q.rowMin(r), m)
		}
		if int(q.minIdx[r]) != at {
			return fmt.Errorf("row %d records its minimum at %d, its entries give %d", r, q.minIdx[r], at)
		}
		if len(row) > q.cfg.LineWidth {
			return fmt.Errorf("row %d holds %d entries, line width %d", r, len(row), q.cfg.LineWidth)
		}
		isOpen := len(row) < q.cfg.LineWidth
		if bitvec.Test(q.openW, r) != isOpen {
			return fmt.Errorf("row %d with %d entries has open bit %v", r, len(row), !isOpen)
		}
		if isOpen {
			open++
		}
		resident += len(row)
	}
	if n := bitvec.Count(q.openW); n != open {
		return fmt.Errorf("open-row index holds %d bits, %d rows are open", n, open)
	}
	if q.total != resident {
		return fmt.Errorf("total %d, buffer and array hold %d", q.total, resident)
	}
	for _, e := range q.buf {
		u := e.u
		for _, x := range [...]*uop.UOp{u, u.Prod[0], u.Prod[1]} {
			if err := q.sb.CheckHead(x); err != nil {
				return err
			}
		}
	}
	for _, u := range q.unresolved {
		if err := q.sb.CheckHead(u); err != nil {
			return err
		}
	}
	for _, e := range q.avail {
		if err := q.sb.CheckHead(e.producer); err != nil {
			return err
		}
	}
	return nil
}

// checkTree verifies the row-minimum tree against its leaves: each leaf
// past the last row is empty, each inner node is the lesser of its
// children with the left one winning a tie, and the root names the row a
// linear scan over the row minima picks first.
func (q *PreschedIQ) checkTree() error {
	if len(q.tree) != 2*q.leaves || q.leaves < q.cfg.Lines {
		return fmt.Errorf("tree of %d nodes over %d leaves for %d rows", len(q.tree), q.leaves, q.cfg.Lines)
	}
	for r := 0; r < q.leaves; r++ {
		n := q.tree[q.leaves+r]
		if int(n.row) != r || (r >= q.cfg.Lines && n.key != math.MaxInt64) {
			return fmt.Errorf("leaf %d holds %+v", r, n)
		}
	}
	for i := q.leaves - 1; i >= 1; i-- {
		want := q.tree[2*i]
		if right := q.tree[2*i+1]; right.key < want.key {
			want = right
		}
		if q.tree[i] != want {
			return fmt.Errorf("tree node %d holds %+v, its children give %+v", i, q.tree[i], want)
		}
	}
	row, key := 0, int64(math.MaxInt64)
	for r := 0; r < q.cfg.Lines; r++ {
		if m := q.rowMin(r); m < key {
			row, key = r, m
		}
	}
	if root := q.tree[1]; root != (minNode{key: key, row: int32(row)}) {
		return fmt.Errorf("tree root %+v, linear scan gives row %d minimum %d", root, row, key)
	}
	return nil
}

// The open-row searches return exactly the row the linear scans they
// replace would: ascending from an offset to the last row, and
// descending from an offset to row 1, over every head position, random
// fills and every offset range.
func TestOpenRowSearchMatchesScan(t *testing.T) {
	seed := uint64(1)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for _, lines := range []int{1, 2, 5, 63, 64, 65, 120, 130} {
		q := MustNew(Config{Lines: lines, LineWidth: 2, IssueBuffer: 4, PredictedLoadLatency: 4})
		for trial := 0; trial < 200; trial++ {
			q.head = rnd(lines)
			for r := range q.lines {
				q.lines[r] = make([]*uop.UOp, rnd(3))
				bitvec.Assign(q.openW, r, len(q.lines[r]) < 2)
			}
			for lo := 0; lo <= lines; lo++ {
				for hi := lo; hi <= lines; hi++ {
					up, down := -1, -1
					for k := lo; k < hi && up < 0; k++ {
						if s := (q.head + k) % lines; len(q.lines[s]) < 2 {
							up = s
						}
					}
					for k := hi - 1; k >= lo && down < 0; k-- {
						if s := (q.head + k) % lines; len(q.lines[s]) < 2 {
							down = s
						}
					}
					if got := q.firstOpen(lo, hi); got != up {
						t.Fatalf("%d lines, head %d: firstOpen(%d, %d) = %d, scan gives %d", lines, q.head, lo, hi, got, up)
					}
					if got := q.lastOpen(lo, hi); got != down {
						t.Fatalf("%d lines, head %d: lastOpen(%d, %d) = %d, scan gives %d", lines, q.head, lo, hi, got, down)
					}
				}
			}
		}
	}
}

// With every row full, a recycled camper swaps with the globally oldest
// array instruction: the oldest moves to the issue buffer, the camper
// takes its slot, and the indexes follow both moves. Here two campers
// recycle in one cycle, and the second swaps with the first, which is by
// then the oldest instruction in the array.
func TestRecycleSwapsWithOldest(t *testing.T) {
	q := MustNew(Config{Lines: 3, LineWidth: 2, IssueBuffer: 2, PredictedLoadLatency: 4})
	alu := func(seq int64, dest int, prod *uop.UOp) *uop.UOp {
		u := uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: dest})
		if prod != nil {
			u.Inst.Src1 = prod.Inst.Dest
			u.Prod[0] = prod
		}
		return u
	}
	// A load that never completes: its consumers camp in the buffer.
	ld := uop.New(0, isa.Inst{Class: isa.Load, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1})
	campers := []*uop.UOp{alu(1, 2, ld), alu(2, 3, ld)}
	for _, u := range campers {
		if !q.Dispatch(0, u) {
			t.Fatal("camper dispatch failed")
		}
	}
	q.BeginCycle(0) // the head row drains into the buffer
	if len(q.buf) != 2 {
		t.Fatalf("buffer holds %d, want both campers", len(q.buf))
	}
	// Fill every row; the rows are placed by predicted ready time, so
	// independent instructions start at the head row and spill forward.
	// Dispatch in an order that leaves the oldest in a later row.
	fill := []*uop.UOp{alu(10, 4, nil), alu(11, 5, nil), alu(5, 6, nil), alu(12, 7, nil), alu(13, 8, nil), alu(14, 9, nil)}
	for _, u := range fill {
		if !q.Dispatch(0, u) {
			t.Fatalf("dispatch of seq %d failed", u.Seq)
		}
	}
	if err := q.checkIndex(); err != nil {
		t.Fatal(err)
	}
	if bitvec.Any(q.openW) {
		t.Fatal("array should be full")
	}
	oldRow := -1
	for r, row := range q.lines {
		for _, x := range row {
			if x.Seq == 5 {
				oldRow = r
			}
		}
	}
	q.BeginCycle(1)
	if err := q.checkIndex(); err != nil {
		t.Fatal(err)
	}
	if n := q.stRecycled.Value(); n != 2 {
		t.Fatalf("%d campers recycled, want 2", n)
	}
	seqs := func(us []*uop.UOp) map[int64]bool {
		m := map[int64]bool{}
		for _, u := range us {
			m[u.Seq] = true
		}
		return m
	}
	var buf []*uop.UOp
	for _, e := range q.buf {
		buf = append(buf, e.u)
	}
	if got := seqs(buf); len(got) != 2 || !got[5] || !got[2] {
		t.Fatalf("buffer holds %v, want the oldest (5) and the re-swapped camper (2)", got)
	}
	if got := seqs(q.lines[oldRow]); len(got) != 2 || !got[12] || !got[1] {
		t.Fatalf("row %d holds %v, want 12 and the camper 1", oldRow, got)
	}
}

// The row-minimum tree's root is the row a linear scan over the row
// minima picks, first row on a tie, after random fills and after each of
// a run of random single-row updates.
func TestMinTreeMatchesScan(t *testing.T) {
	seed := uint64(1)
	rnd := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	// A small key range forces ties; the top value stands for an empty row.
	key := func() int64 {
		if k := rnd(9); k < 8 {
			return int64(k)
		}
		return math.MaxInt64
	}
	for _, lines := range []int{1, 2, 5, 63, 64, 65, 120, 130} {
		q := MustNew(Config{Lines: lines, LineWidth: 2, IssueBuffer: 4, PredictedLoadLatency: 4})
		for trial := 0; trial < 50; trial++ {
			for r := 0; r < lines; r++ {
				q.setRowMin(r, key())
			}
			for step := 0; step < 4*lines; step++ {
				if step > 0 {
					q.setRowMin(rnd(lines), key())
				}
				if err := q.checkTree(); err != nil {
					t.Fatalf("%d lines, trial %d, step %d: %v", lines, trial, step, err)
				}
			}
		}
	}
}
