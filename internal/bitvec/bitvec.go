// Package bitvec provides the small word-parallel bit-set kernels the
// instruction-queue designs build their occupancy and readiness bitmaps
// from: fixed-capacity multi-word sets with position insertion/removal
// (shifting the tail, for position-indexed segments and buffers) and the
// usual test/set/clear/popcount operations over []uint64 words.
package bitvec

import "math/bits"

// Words returns the number of uint64 words needed for n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns a zeroed bit set with capacity for n bits.
func New(n int) []uint64 { return make([]uint64, Words(n)) }

// Test reports whether bit i is set.
func Test(w []uint64, i int) bool { return w[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func Set(w []uint64, i int) { w[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func Clear(w []uint64, i int) { w[i>>6] &^= 1 << (uint(i) & 63) }

// Assign sets bit i to v.
func Assign(w []uint64, i int, v bool) {
	if v {
		Set(w, i)
	} else {
		Clear(w, i)
	}
}

// Count returns the number of set bits.
func Count(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// Any reports whether any bit is set.
func Any(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// NextSet returns the index of the first set bit at or after i, or -1.
func NextSet(w []uint64, i int) int {
	if i < 0 {
		i = 0
	}
	k := i >> 6
	if k >= len(w) {
		return -1
	}
	// Mask off bits below i in the first word.
	x := w[k] &^ ((1 << (uint(i) & 63)) - 1)
	for {
		if x != 0 {
			return k<<6 + bits.TrailingZeros64(x)
		}
		k++
		if k >= len(w) {
			return -1
		}
		x = w[k]
	}
}

// PrevSet returns the index of the last set bit at or before i, or -1.
// i must lie within the set's capacity.
func PrevSet(w []uint64, i int) int {
	if i < 0 {
		return -1
	}
	k := i >> 6
	// Mask off bits above i in the first word (at bit 63 the shift wraps
	// to 0 and the mask to all ones).
	x := w[k] & (2<<(uint(i)&63) - 1)
	for {
		if x != 0 {
			return k<<6 + 63 - bits.LeadingZeros64(x)
		}
		k--
		if k < 0 {
			return -1
		}
		x = w[k]
	}
}

// Insert shifts bits at positions >= i up by one and sets bit i to v
// (mirrors inserting an element at position i of a position-indexed
// sequence). The top bit of the last word is discarded; callers size the
// set so it is never populated.
func Insert(w []uint64, i int, v bool) {
	k := i >> 6
	off := uint(i) & 63
	low := (uint64(1) << off) - 1
	carry := w[k] >> 63
	w[k] = w[k]&low | (w[k]&^low)<<1
	if v {
		w[k] |= 1 << off
	}
	for k++; k < len(w); k++ {
		nc := w[k] >> 63
		w[k] = w[k]<<1 | carry
		carry = nc
	}
}

// Remove shifts bits at positions > i down by one, dropping bit i
// (mirrors removing position i of a position-indexed sequence).
func Remove(w []uint64, i int) {
	k := i >> 6
	off := uint(i) & 63
	low := (uint64(1) << off) - 1
	hi := w[k] &^ low &^ (1 << off)
	w[k] = w[k]&low | hi>>1
	for j := k + 1; j < len(w); j++ {
		w[j-1] |= (w[j] & 1) << 63
		w[j] >>= 1
	}
}

// RemoveRun drops the n bits at positions i..i+n-1, shifting every higher
// bit down by n; the top n bits come in clear. It is n Removes at i in one
// pass over the words.
func RemoveRun(w []uint64, i, n int) {
	if n <= 0 {
		return
	}
	k := i >> 6
	off := uint(i) & 63
	low := (uint64(1) << off) - 1
	w[k] = w[k]&low | bitsFrom(w, i+n)<<off
	for k++; k < len(w); k++ {
		w[k] = bitsFrom(w, k<<6+n)
	}
}

// bitsFrom returns the 64 bits starting at position pos, reading clear
// past the end of w.
func bitsFrom(w []uint64, pos int) uint64 {
	k, off := pos>>6, uint(pos)&63
	var x uint64
	if k < len(w) {
		x = w[k] >> off
	}
	if off != 0 && k+1 < len(w) {
		x |= w[k+1] << (64 - off)
	}
	return x
}
