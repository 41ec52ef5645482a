// Package stats provides the lightweight statistics primitives used
// throughout the simulator: counters, running averages, peak trackers,
// bucketed distributions and simple fixed-width table rendering for the
// experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Mean accumulates samples and reports their arithmetic mean, maximum and
// count. The zero value is ready to use.
type Mean struct {
	sum   float64
	count uint64
	max   float64
}

// Observe records one sample.
func (m *Mean) Observe(v float64) {
	m.sum += v
	m.count++
	if m.count == 1 || v > m.max {
		m.max = v
	}
}

// Value returns the arithmetic mean of all samples, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Max returns the largest sample observed, or 0 with no samples.
func (m *Mean) Max() float64 { return m.max }

// Count returns the number of samples observed.
func (m *Mean) Count() uint64 { return m.count }

// Sum returns the sum of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Reset discards all samples.
func (m *Mean) Reset() { *m = Mean{} }

// Peak tracks the maximum of a level that moves up and down, such as the
// number of allocated chains.
type Peak struct {
	cur  int64
	peak int64
}

// Add moves the current level by delta and updates the peak.
func (p *Peak) Add(delta int64) {
	p.cur += delta
	if p.cur > p.peak {
		p.peak = p.cur
	}
}

// Set assigns the current level directly and updates the peak.
func (p *Peak) Set(v int64) {
	p.cur = v
	if v > p.peak {
		p.peak = v
	}
}

// Current returns the present level.
func (p *Peak) Current() int64 { return p.cur }

// Value returns the highest level ever reached.
func (p *Peak) Value() int64 { return p.peak }

// Reset zeroes both the level and the peak.
func (p *Peak) Reset() { *p = Peak{} }

// Dist is a bucketed distribution over small non-negative integers
// (segment occupancies, issue widths, delay values). Samples at or above
// the bucket count fall into the final overflow bucket.
type Dist struct {
	buckets []uint64
	total   uint64
	sum     float64
}

// NewDist creates a distribution with n regular buckets plus an overflow
// bucket.
func NewDist(n int) *Dist {
	if n < 1 {
		n = 1
	}
	return &Dist{buckets: make([]uint64, n+1)}
}

// Observe records one integer sample. Negative samples are clamped to 0.
func (d *Dist) Observe(v int) {
	if v < 0 {
		v = 0
	}
	i := v
	if i >= len(d.buckets)-1 {
		i = len(d.buckets) - 1
	}
	d.buckets[i]++
	d.total++
	d.sum += float64(v)
}

// Total returns the number of samples.
func (d *Dist) Total() uint64 { return d.total }

// Mean returns the arithmetic mean of all samples.
func (d *Dist) Mean() float64 {
	if d.total == 0 {
		return 0
	}
	return d.sum / float64(d.total)
}

// Bucket returns the count in bucket i; i == NumBuckets()-1 is the overflow
// bucket.
func (d *Dist) Bucket(i int) uint64 {
	if i < 0 || i >= len(d.buckets) {
		return 0
	}
	return d.buckets[i]
}

// NumBuckets returns the bucket count including the overflow bucket.
func (d *Dist) NumBuckets() int { return len(d.buckets) }

// Fraction returns the fraction of samples in bucket i.
func (d *Dist) Fraction(i int) float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.Bucket(i)) / float64(d.total)
}

// Clone returns an independent copy of the distribution.
func (d *Dist) Clone() *Dist {
	n := &Dist{buckets: make([]uint64, len(d.buckets)), total: d.total, sum: d.sum}
	copy(n.buckets, d.buckets)
	return n
}

// Ratio is a hits/total style rate with safe division.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Set is a named collection of scalar statistics gathered from a run,
// rendered by the experiment harness. Insertion order is preserved.
type Set struct {
	names    []string
	values   map[string]float64
	warnings []string
}

// NewSet creates an empty statistics set.
func NewSet() *Set {
	return &Set{values: make(map[string]float64)}
}

// Put stores a value under name, overwriting any previous value but
// preserving the original insertion position.
func (s *Set) Put(name string, v float64) {
	if _, ok := s.values[name]; !ok {
		s.names = append(s.names, name)
	}
	s.values[name] = v
}

// Get returns the value stored under name and whether it exists.
func (s *Set) Get(name string) (float64, bool) {
	v, ok := s.values[name]
	return v, ok
}

// MustGet returns the value under name. It is used by the harness for
// statistics that the simulator always produces; if the name is absent —
// typically a queue design that does not emit some design-specific
// counter — it returns zero and records a warning rather than panicking,
// so one missing counter cannot take down a whole experiment batch.
// Warnings() exposes what was missed.
func (s *Set) MustGet(name string) float64 {
	v, ok := s.values[name]
	if !ok {
		s.warnings = append(s.warnings, fmt.Sprintf("stats: missing %q (reported as 0)", name))
		return 0
	}
	return v
}

// Clone returns an independent copy of the set, including any recorded
// warnings.
func (s *Set) Clone() *Set {
	n := &Set{
		names:  append([]string(nil), s.names...),
		values: make(map[string]float64, len(s.values)),
	}
	for k, v := range s.values {
		n.values[k] = v
	}
	if len(s.warnings) > 0 {
		n.warnings = append([]string(nil), s.warnings...)
	}
	return n
}

// Warnings returns the messages recorded for statistics that were
// requested via MustGet but never stored.
func (s *Set) Warnings() []string {
	out := make([]string, len(s.warnings))
	copy(out, s.warnings)
	return out
}

// Names returns the stat names in insertion order.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// String renders the set one stat per line, aligned.
func (s *Set) String() string {
	w := 0
	for _, n := range s.names {
		if len(n) > w {
			w = len(n)
		}
	}
	var b strings.Builder
	for _, n := range s.names {
		fmt.Fprintf(&b, "%-*s %s\n", w, n, formatValue(s.values[n]))
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Table renders rows of labelled values as a fixed-width text table, the
// output format of cmd/iqbench. Columns are ordered as given; rows are
// rendered in insertion order.
type Table struct {
	cols []string
	rows []tableRow
}

type tableRow struct {
	label string
	cells map[string]string
}

// NewTable creates a table whose first column is labelled rowHead followed
// by the given value columns.
func NewTable(rowHead string, cols ...string) *Table {
	return &Table{cols: append([]string{rowHead}, cols...)}
}

// AddRow appends a row. Cells are matched to columns by name; missing cells
// render as "-".
func (t *Table) AddRow(label string, cells map[string]string) {
	cp := make(map[string]string, len(cells))
	for k, v := range cells {
		cp[k] = v
	}
	t.rows = append(t.rows, tableRow{label: label, cells: cp})
}

// AddRowValues appends a row with float cells formatted to the given number
// of decimal places, in column order.
func (t *Table) AddRowValues(label string, decimals int, vals ...float64) {
	cells := make(map[string]string, len(vals))
	for i, v := range vals {
		if i+1 >= len(t.cols) {
			break
		}
		cells[t.cols[i+1]] = fmt.Sprintf("%.*f", decimals, v)
	}
	t.rows = append(t.rows, tableRow{label: label, cells: cells})
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
		for i, c := range t.cols[1:] {
			cell := r.cells[c]
			if cell == "" {
				cell = "-"
			}
			if len(cell) > widths[i+1] {
				widths[i+1] = len(cell)
			}
		}
	}
	var b strings.Builder
	for i, c := range t.cols {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.cols {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.label)
		for i, c := range t.cols[1:] {
			cell := r.cells[c]
			if cell == "" {
				cell = "-"
			}
			fmt.Fprintf(&b, "  %*s", widths[i+1], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GeoMean returns the geometric mean of vs, ignoring non-positive entries.
// It is used for cross-benchmark performance summaries, matching the
// paper's use of relative-performance averages.
func GeoMean(vs []float64) float64 {
	logSum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ArithMean returns the arithmetic mean of vs, or 0 for an empty slice.
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// SortedNames returns map keys in sorted order; a convenience for
// deterministic output.
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
