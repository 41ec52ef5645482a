// Package codec is the little-endian binary layer under the checkpoint
// file format: a Writer and Reader with sticky errors, so each subsystem
// (mem, bpred, trace, stats, sim) encodes its own state as a flat field
// sequence and checks one error at the section boundary instead of after
// every field. Readers bound every length they decode, so a truncated or
// corrupt file fails with an error instead of an enormous allocation.
package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// MaxLen bounds any single length-prefixed field (strings, byte blobs,
// slices). Checkpoint sections are table-sized — a few megabytes at most —
// so anything larger is corruption, not data.
const MaxLen = 1 << 28

// Writer encodes fixed-width little-endian values to an io.Writer. The
// first write error sticks; later writes are no-ops.
type Writer struct {
	w   io.Writer
	buf [8]byte
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a 32-bit value.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a 64-bit value.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I64 writes a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a signed 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(floatBits(v)) }

// Raw writes p with no length prefix (fixed-size fields like magic
// numbers, where both sides know the width).
func (w *Writer) Raw(p []byte) { w.write(p) }

// Bytes writes a length-prefixed byte blob.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Reader decodes values written by Writer. The first error sticks and
// every subsequent read returns the zero value.
type Reader struct {
	r   io.Reader
	buf [8]byte
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail records an error (e.g. a validation failure found mid-decode) so
// the section boundary check reports it.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.read(r.buf[:1]) {
		return 0
	}
	return r.buf[0]
}

// Bool reads a boolean. Writer emits only 0 and 1, so any other byte is
// corruption.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail("codec: bool byte %d is neither 0 nor 1", v)
	}
	return v == 1
}

// U32 reads a 32-bit value.
func (r *Reader) U32() uint32 {
	if !r.read(r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a 64-bit value.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return floatFrom(r.U64()) }

// Len reads a length prefix and validates it against MaxLen (and the
// caller's own bound, if tighter, via max >= 0).
func (r *Reader) Len(max int) int {
	n := r.U64()
	limit := uint64(MaxLen)
	if max >= 0 && uint64(max) < limit {
		limit = uint64(max)
	}
	if n > limit {
		r.Fail("codec: length %d exceeds limit %d", n, limit)
		return 0
	}
	return int(n)
}

// Raw reads exactly n bytes written by Writer.Raw.
func (r *Reader) Raw(n int) []byte {
	p := make([]byte, n)
	if !r.read(p) {
		return nil
	}
	return p
}

// Bytes reads a length-prefixed blob of at most max bytes (max < 0: the
// package-wide MaxLen).
func (r *Reader) Bytes(max int) []byte {
	n := r.Len(max)
	if r.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	if !r.read(p) {
		return nil
	}
	return p
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.Bytes(max)) }
