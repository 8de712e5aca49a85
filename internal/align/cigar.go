// Package align provides the alignment core shared by Persona's aligners:
// CIGAR strings, bounded edit distance (Landau-Vishkin, the verification
// kernel SNAP uses), banded affine-gap Smith-Waterman (the extension kernel
// BWA-MEM uses), and mapping-quality estimation.
package align

import (
	"fmt"
	"strconv"
	"strings"
)

// CigarOp is one CIGAR operation kind.
type CigarOp byte

// CIGAR operation kinds, in BAM numeric order.
const (
	CigarMatch    CigarOp = 'M' // alignment match or mismatch
	CigarIns      CigarOp = 'I' // insertion to the reference
	CigarDel      CigarOp = 'D' // deletion from the reference
	CigarSkip     CigarOp = 'N'
	CigarSoftClip CigarOp = 'S'
	CigarHardClip CigarOp = 'H'
	CigarPad      CigarOp = 'P'
	CigarEqual    CigarOp = '='
	CigarDiff     CigarOp = 'X'
)

// cigarOps lists operations in BAM numeric encoding order.
var cigarOps = []CigarOp{CigarMatch, CigarIns, CigarDel, CigarSkip, CigarSoftClip, CigarHardClip, CigarPad, CigarEqual, CigarDiff}

// BAMCode returns the BAM numeric encoding of the op (0..8), or -1.
func (op CigarOp) BAMCode() int {
	for i, o := range cigarOps {
		if o == op {
			return i
		}
	}
	return -1
}

// CigarOpFromBAM maps a BAM numeric code back to the op.
func CigarOpFromBAM(code int) (CigarOp, error) {
	if code < 0 || code >= len(cigarOps) {
		return 0, fmt.Errorf("align: bad BAM cigar code %d", code)
	}
	return cigarOps[code], nil
}

// CigarElem is one run-length element of a CIGAR.
type CigarElem struct {
	Len int
	Op  CigarOp
}

// Cigar is a parsed CIGAR.
type Cigar []CigarElem

// String renders the CIGAR in SAM text form; empty renders as "*".
func (c Cigar) String() string {
	if len(c) == 0 {
		return "*"
	}
	var sb strings.Builder
	for _, e := range c {
		sb.WriteString(strconv.Itoa(e.Len))
		sb.WriteByte(byte(e.Op))
	}
	return sb.String()
}

// AppendText appends the SAM text form to dst and returns the extended
// slice, rendering like String ("*" when empty) without allocating.
func (c Cigar) AppendText(dst []byte) []byte {
	if len(c) == 0 {
		return append(dst, '*')
	}
	for _, e := range c {
		dst = strconv.AppendInt(dst, int64(e.Len), 10)
		dst = append(dst, byte(e.Op))
	}
	return dst
}

// ParseCigar parses a SAM CIGAR string; "*" and "" parse to nil.
func ParseCigar(s string) (Cigar, error) {
	if s == "" || s == "*" {
		return nil, nil
	}
	var c Cigar
	n := 0
	sawDigit := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= '0' && ch <= '9' {
			n = n*10 + int(ch-'0')
			sawDigit = true
			continue
		}
		if !sawDigit || n == 0 {
			return nil, fmt.Errorf("align: bad cigar %q: op %q without length", s, ch)
		}
		switch op := CigarOp(ch); op {
		case CigarMatch, CigarIns, CigarDel, CigarSkip, CigarSoftClip, CigarHardClip, CigarPad, CigarEqual, CigarDiff:
			c = append(c, CigarElem{Len: n, Op: op})
		default:
			return nil, fmt.Errorf("align: bad cigar %q: unknown op %q", s, ch)
		}
		n = 0
		sawDigit = false
	}
	if sawDigit {
		return nil, fmt.Errorf("align: bad cigar %q: trailing length", s)
	}
	return c, nil
}

// ParseCigarBytes parses a SAM CIGAR from byte text, appending elements to
// dst (usually dst[:0] of a reused scratch) so steady-state parsing
// allocates nothing. "*" and empty parse to dst unchanged.
func ParseCigarBytes(dst Cigar, s []byte) (Cigar, error) {
	if len(s) == 0 || (len(s) == 1 && s[0] == '*') {
		return dst, nil
	}
	n := 0
	sawDigit := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= '0' && ch <= '9' {
			n = n*10 + int(ch-'0')
			sawDigit = true
			continue
		}
		if !sawDigit || n == 0 {
			return dst, fmt.Errorf("align: bad cigar %q: op %q without length", s, ch)
		}
		switch op := CigarOp(ch); op {
		case CigarMatch, CigarIns, CigarDel, CigarSkip, CigarSoftClip, CigarHardClip, CigarPad, CigarEqual, CigarDiff:
			dst = append(dst, CigarElem{Len: n, Op: op})
		default:
			return dst, fmt.Errorf("align: bad cigar %q: unknown op %q", s, ch)
		}
		n = 0
		sawDigit = false
	}
	if sawDigit {
		return dst, fmt.Errorf("align: bad cigar %q: trailing length", s)
	}
	return dst, nil
}

// ReadLen returns the read bases consumed by the CIGAR (M/I/S/=/X).
func (c Cigar) ReadLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case CigarMatch, CigarIns, CigarSoftClip, CigarEqual, CigarDiff:
			n += e.Len
		}
	}
	return n
}

// RefLen returns the reference bases consumed by the CIGAR (M/D/N/=/X).
func (c Cigar) RefLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case CigarMatch, CigarDel, CigarSkip, CigarEqual, CigarDiff:
			n += e.Len
		}
	}
	return n
}

// Canonical merges adjacent elements with identical ops and drops
// zero-length elements.
func (c Cigar) Canonical() Cigar {
	var out Cigar
	for _, e := range c {
		out = out.add(e.Op, e.Len)
	}
	return out
}

// add appends n of op to c, lengthening the last element when it is op too.
func (c Cigar) add(op CigarOp, n int) Cigar {
	if n == 0 {
		return c
	}
	if k := len(c) - 1; k >= 0 && c[k].Op == op {
		c[k].Len += n
		return c
	}
	return append(c, CigarElem{Len: n, Op: op})
}
