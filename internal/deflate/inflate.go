package deflate

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

// Errors returned by Inflate. They carry no offsets: callers wrap them with
// their own coordinates (blob, block).
var (
	// ErrCorrupt reports a stream that is not valid RFC 1951 deflate data.
	ErrCorrupt = errors.New("deflate: corrupt stream")
	// ErrTruncated reports a stream that ends before its final block does.
	ErrTruncated = errors.New("deflate: truncated stream")
	// ErrSize reports a valid stream whose output is not exactly len(dst).
	ErrSize = errors.New("deflate: stream does not inflate to the expected size")
)

// Decode tables. A symbol is resolved by one lookup on the low primary bits
// of the bit buffer; codewords longer than that go through a sub-table the
// primary entry points to. An entry is
//
//	bits 0..5   bits to consume: codeword length plus extra bits
//	bits 8..11  codeword length alone (to shift the extra bits down)
//	bit  13     end of block       (with entryExc)
//	bit  14     sub-table pointer  (with entryExc)
//	bit  15     exceptional: sub-table pointer, end of block or unused code
//	bits 16..30 literal byte, base length, base distance or sub-table start
//	bit  31     literal
//
// For a sub-table pointer bits 8..11 hold the sub-table's index width, and
// the entries of a sub-table count the whole codeword, primary bits included,
// so nothing is consumed until a symbol is fully resolved.
const (
	litPrimaryBits  = 11
	distPrimaryBits = 8
	maxCodeLen      = 15

	// A complete code has at most half as many sub-tables as it has codewords
	// longer than the primary width; all sub-tables of one code are as wide
	// as its longest codeword needs.
	litTableSize  = 1<<litPrimaryBits + (maxLitSyms/2)<<(maxCodeLen-litPrimaryBits)
	distTableSize = 1<<distPrimaryBits + (maxDistSyms/2)<<(maxCodeLen-distPrimaryBits)

	maxLitSyms  = 288 // the fixed code names 286 and 287, which no stream may use
	maxDistSyms = 32  // likewise 30 and 31
	numPrecode  = 19

	entryLit = 1 << 31
	entryExc = 1 << 15
	entrySub = 1 << 14
	entryEOB = 1 << 13

	// The fast loop runs while a whole iteration — two refills, two literals
	// and a longest match with its copy overshoot — cannot leave src or dst.
	fastInMargin  = 16
	fastOutMargin = 2 + 258 + 8
)

// litEntry and distEntry give each symbol's table entry without its codeword
// length; precodeOrder is the order a dynamic header lists precode lengths in.
var (
	litEntry     [maxLitSyms]uint32
	distEntry    [maxDistSyms]uint32
	precodeOrder = [numPrecode]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

func init() {
	for s := range litEntry {
		switch {
		case s < 256:
			litEntry[s] = entryLit | uint32(s)<<16
		case s == 256:
			litEntry[s] = entryExc | entryEOB
		case s < 257+len(lengthBase):
			litEntry[s] = uint32(lengthBase[s-257])<<16 | uint32(lengthExtra[s-257])
		default:
			litEntry[s] = entryExc
		}
	}
	for s := range distEntry {
		if s < len(distBase) {
			distEntry[s] = uint32(distBase[s])<<16 | uint32(distExtra[s])
		} else {
			distEntry[s] = entryExc
		}
	}
}

// The fixed code's tables, built on first use.
var (
	fixedOnce sync.Once
	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32
)

func fixedTables() (*[litTableSize]uint32, *[distTableSize]uint32) {
	fixedOnce.Do(func() {
		var litLen [maxLitSyms]uint8
		for s := range litLen {
			switch {
			case s < 144:
				litLen[s] = 8
			case s < 256:
				litLen[s] = 9
			case s < 280:
				litLen[s] = 7
			default:
				litLen[s] = 8
			}
		}
		var distLen [maxDistSyms]uint8
		for s := range distLen {
			distLen[s] = 5
		}
		buildTable(fixedLit[:], litLen[:], litEntry[:], litPrimaryBits)
		buildTable(fixedDist[:], distLen[:], distEntry[:], distPrimaryBits)
	})
	return &fixedLit, &fixedDist
}

// buildTable fills table for the canonical code with the given codeword
// lengths, entryOf[sym] being each symbol's entry. It reports false for the
// length sets compress/flate rejects: over-subscribed, or incomplete other
// than a single one-bit codeword. A set with no codeword at all is accepted
// and decodes nothing.
func buildTable(table []uint32, lens []uint8, entryOf []uint32, primaryBits uint) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	maxLen := uint(maxCodeLen)
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	count[0] = 0
	left := 1
	var next [maxCodeLen + 1]uint32 // first codeword of each length
	for l := uint(1); l <= maxLen; l++ {
		next[l] = (next[l-1] + uint32(count[l-1])) << 1
		if left = left<<1 - count[l]; left < 0 {
			return false
		}
	}
	if left > 0 && maxLen > 0 && !(maxLen == 1 && count[1] == 1) {
		return false
	}

	primary := table[:1<<primaryBits]
	subBits := uint(0)
	switch {
	case left > 0:
		// Some bit patterns name no codeword.
		for i := range primary {
			primary[i] = entryExc
		}
	case maxLen > primaryBits:
		// Zero marks the slots that have no sub-table yet; every slot of a
		// complete code is written below.
		subBits = maxLen - primaryBits
		clear(primary)
	}
	subEnd := uint32(len(primary))
	for sym, l8 := range lens {
		l := uint(l8)
		if l == 0 {
			continue
		}
		code := next[l]
		next[l]++
		rev := uint(bits.Reverse16(uint16(code)) >> (16 - l))
		e := entryOf[sym] + uint32(l)<<8 + uint32(l)
		if l <= primaryBits {
			for i := rev; i < uint(len(primary)); i += 1 << l {
				primary[i] = e
			}
			continue
		}
		p := &primary[rev&(1<<primaryBits-1)]
		if *p == 0 {
			if int(subEnd)+1<<subBits > len(table) {
				return false // unreachable for a complete code; keeps the bound local
			}
			*p = entryExc | entrySub | subEnd<<16 | uint32(subBits)<<8 | uint32(primaryBits)
			subEnd += 1 << subBits
		}
		sub := table[*p>>16&0x7fff:][:1<<subBits]
		for i := rev >> primaryBits; i < uint(len(sub)); i += 1 << (l - primaryBits) {
			sub[i] = e
		}
	}
	return true
}

// decoder is the pooled state of one Inflate call.
type decoder struct {
	src    []byte
	in     int
	bitbuf uint64
	bitcnt uint

	dst []byte
	out int

	lens    [maxLitSyms + maxDistSyms]uint8
	precode [1 << 7]uint32
	lit     [litTableSize]uint32
	dist    [distTableSize]uint32
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// Inflate decodes the deflate stream at the start of src into dst, which must
// be exactly as long as the stream's output, and returns how many bytes of
// src the stream occupies. It accepts what compress/flate accepts — stored,
// fixed and dynamic blocks in any number — and rejects what it rejects, and
// never writes outside dst. On error the contents of dst are unspecified.
func Inflate(dst, src []byte) (int, error) {
	d := decoderPool.Get().(*decoder)
	d.src, d.in, d.bitbuf, d.bitcnt = src, 0, 0, 0
	d.dst, d.out = dst, 0
	n, err := d.inflate()
	d.src, d.dst = nil, nil // do not pin the caller's buffers from the pool
	decoderPool.Put(d)
	return n, err
}

func (d *decoder) inflate() (int, error) {
	for {
		if !d.need(3) {
			return 0, ErrTruncated
		}
		hdr := d.take(3)
		var err error
		switch hdr >> 1 {
		case 0:
			err = d.stored()
		case 1:
			lit, dist := fixedTables()
			err = d.block(lit, dist)
		case 2:
			if err = d.dynamicHeader(); err == nil {
				err = d.block(&d.lit, &d.dist)
			}
		default:
			err = ErrCorrupt
		}
		if err != nil {
			return 0, err
		}
		if hdr&1 != 0 {
			break
		}
	}
	if d.out != len(d.dst) {
		return 0, ErrSize
	}
	// Whole bytes still in the bit buffer were never part of the stream.
	return d.in - int(d.bitcnt>>3), nil
}

// need makes at least n ≤ 56 bits available, reporting false at end of input.
func (d *decoder) need(n uint) bool {
	for d.bitcnt < n {
		if d.in >= len(d.src) {
			return false
		}
		d.bitbuf |= uint64(d.src[d.in]) << d.bitcnt
		d.in++
		d.bitcnt += 8
	}
	return true
}

// take consumes n available bits.
func (d *decoder) take(n uint) uint32 {
	v := uint32(d.bitbuf & (1<<n - 1))
	d.bitbuf >>= n
	d.bitcnt -= n
	return v
}

func (d *decoder) stored() error {
	// Back to a byte boundary: drop the partial byte, return the whole ones.
	d.in -= int(d.bitcnt >> 3)
	d.bitbuf, d.bitcnt = 0, 0
	if len(d.src)-d.in < 4 {
		return ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(d.src[d.in:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.src[d.in+2:]) {
		return ErrCorrupt
	}
	d.in += 4
	if len(d.src)-d.in < n {
		return ErrTruncated
	}
	if len(d.dst)-d.out < n {
		return ErrSize
	}
	copy(d.dst[d.out:], d.src[d.in:d.in+n])
	d.in += n
	d.out += n
	return nil
}

// dynamicHeader reads a dynamic block's code lengths and builds its tables.
func (d *decoder) dynamicHeader() error {
	if !d.need(14) {
		return ErrTruncated
	}
	nlit := int(d.take(5)) + 257
	ndist := int(d.take(5)) + 1
	nclen := int(d.take(4)) + 4
	if nlit > 286 || ndist > 30 {
		return ErrCorrupt
	}
	var pre [numPrecode]uint8
	for i := 0; i < nclen; i++ {
		if !d.need(3) {
			return ErrTruncated
		}
		pre[precodeOrder[i]] = uint8(d.take(3))
	}
	if !buildTable(d.precode[:], pre[:], precodeEntry[:], 7) {
		return ErrCorrupt
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// A codeword is at most 7 bits; near the end of input fewer may be
		// left, and the entry found says whether they suffice.
		d.need(7)
		e := d.precode[d.bitbuf&(1<<7-1)]
		if e&entryExc != 0 {
			return ErrCorrupt
		}
		if uint(e&63) > d.bitcnt {
			return ErrTruncated
		}
		d.take(uint(e & 63))
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var fill uint8
		switch sym {
		case 16:
			if i == 0 {
				return ErrCorrupt
			}
			if !d.need(2) {
				return ErrTruncated
			}
			rep, fill = 3+int(d.take(2)), lens[i-1]
		case 17:
			if !d.need(3) {
				return ErrTruncated
			}
			rep = 3 + int(d.take(3))
		default:
			if !d.need(7) {
				return ErrTruncated
			}
			rep = 11 + int(d.take(7))
		}
		if i+rep > len(lens) {
			return ErrCorrupt
		}
		for ; rep > 0; rep-- {
			lens[i] = fill
			i++
		}
	}
	if !buildTable(d.lit[:], lens[:nlit], litEntry[:], litPrimaryBits) ||
		!buildTable(d.dist[:], lens[nlit:], distEntry[:], distPrimaryBits) {
		return ErrCorrupt
	}
	return nil
}

// precodeEntry maps a precode symbol to its entry (the symbol in bits 16+).
var precodeEntry = func() (t [numPrecode]uint32) {
	for s := range t {
		t[s] = uint32(s) << 16
	}
	return t
}()

// block decodes the symbols of one Huffman block up to its end-of-block.
func (d *decoder) block(lit *[litTableSize]uint32, dist *[distTableSize]uint32) error {
	src, dst := d.src, d.dst
	in, out := d.in, d.out
	bitbuf, bitcnt := d.bitbuf, d.bitcnt
	const (
		litMask  = 1<<litPrimaryBits - 1
		distMask = 1<<distPrimaryBits - 1
	)

	// Fast loop: no bounds to check per symbol. A refill ORs the next eight
	// bytes above the bits on hand and counts only the whole bytes that fit
	// below bit 56; the bits above bitcnt are then real stream bits that the
	// next refill ORs in again.
	for in+fastInMargin <= len(src) && out+fastOutMargin <= len(dst) {
		bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (bitcnt & 63)
		in += int(63-bitcnt) >> 3
		bitcnt |= 56

		e := lit[bitbuf&litMask]
		if int32(e) < 0 {
			bitbuf >>= e & 63
			bitcnt -= uint(e & 63)
			dst[out] = byte(e >> 16)
			out++
			e = lit[bitbuf&litMask]
			if int32(e) < 0 {
				bitbuf >>= e & 63
				bitcnt -= uint(e & 63)
				dst[out] = byte(e >> 16)
				out++
				e = lit[bitbuf&litMask]
				if int32(e) < 0 {
					bitbuf >>= e & 63
					bitcnt -= uint(e & 63)
					dst[out] = byte(e >> 16)
					out++
					continue
				}
			}
		}
		// At least 26 bits are on hand: enough for any length symbol.
		if e&entryExc != 0 {
			if e&entrySub == 0 {
				break // end of block or an unused code: the careful loop decides
			}
			e = lit[e>>16&0x7fff+uint32(bitbuf>>litPrimaryBits)&(1<<(e>>8&15)-1)]
			if int32(e) < 0 {
				bitbuf >>= e & 63
				bitcnt -= uint(e & 63)
				dst[out] = byte(e >> 16)
				out++
				continue
			}
			if e&entryExc != 0 {
				break
			}
		}
		length := int(e>>16) + int(bitbuf&(1<<(e&63)-1)>>(e>>8&15))
		bitbuf >>= e & 63
		bitcnt -= uint(e & 63)

		bitbuf |= binary.LittleEndian.Uint64(src[in:]) << (bitcnt & 63)
		in += int(63-bitcnt) >> 3
		bitcnt |= 56

		e = dist[bitbuf&distMask]
		if e&entryExc != 0 {
			if e&entrySub == 0 {
				return ErrCorrupt
			}
			e = dist[e>>16&0x7fff+uint32(bitbuf>>distPrimaryBits)&(1<<(e>>8&15)-1)]
			if e&entryExc != 0 {
				return ErrCorrupt
			}
		}
		back := int(e>>16) + int(bitbuf&(1<<(e&63)-1)>>(e>>8&15))
		bitbuf >>= e & 63
		bitcnt -= uint(e & 63)
		if back > out {
			return ErrCorrupt
		}

		from, end := out-back, out+length
		if back >= 8 {
			// Eight bytes a step; the overshoot past end stays inside the
			// margin and is overwritten by what follows.
			for out < end {
				binary.LittleEndian.PutUint64(dst[out:], binary.LittleEndian.Uint64(dst[from:]))
				out += 8
				from += 8
			}
			out = end
		} else if back == 1 {
			b := dst[from]
			for ; out < end; out++ {
				dst[out] = b
			}
		} else {
			for ; out < end; out++ {
				dst[out] = dst[from]
				from++
			}
		}
	}

	// Careful loop: every read and write is checked. The bits above bitcnt
	// left by the fast refill are cleared so byte-wise refills can OR.
	bitbuf &= 1<<bitcnt - 1
	d.in, d.bitbuf, d.bitcnt, d.out = in, bitbuf, bitcnt, out
	for {
		e, err := d.symbol(lit[:], litPrimaryBits)
		if err != nil {
			return err
		}
		if int32(e) < 0 {
			if d.out == len(dst) {
				return ErrSize
			}
			dst[d.out] = byte(e >> 16)
			d.out++
			continue
		}
		if e&entryEOB != 0 {
			return nil
		}
		length, ok := d.extra(e)
		if !ok {
			return ErrTruncated
		}
		if e, err = d.symbol(dist[:], distPrimaryBits); err != nil {
			return err
		}
		back, ok := d.extra(e)
		if !ok {
			return ErrTruncated
		}
		if back > d.out {
			return ErrCorrupt
		}
		if length > len(dst)-d.out {
			return ErrSize
		}
		for end := d.out + length; d.out < end; d.out++ {
			dst[d.out] = dst[d.out-back]
		}
	}
}

// symbol resolves and consumes the next codeword of table, leaving its extra
// bits for extra. It returns the symbol's entry; an unused code is ErrCorrupt
// and a codeword cut off by the end of input ErrTruncated.
func (d *decoder) symbol(table []uint32, primaryBits uint) (uint32, error) {
	d.need(maxCodeLen) // fewer may be left; the entry says whether they suffice
	e := table[d.bitbuf&(1<<primaryBits-1)]
	if e&(entryExc|entrySub) == entryExc|entrySub {
		if d.bitcnt <= primaryBits {
			return 0, ErrTruncated
		}
		e = table[e>>16&0x7fff+uint32(d.bitbuf>>primaryBits)&(1<<(e>>8&15)-1)]
	}
	n := uint(e >> 8 & 15)
	if e&(entryExc|entryEOB) == entryExc {
		return 0, ErrCorrupt
	}
	if n > d.bitcnt {
		return 0, ErrTruncated
	}
	d.bitbuf >>= n
	d.bitcnt -= n
	return e, nil
}

// extra consumes the extra bits of a length or distance entry whose codeword
// symbol already consumed, and returns the full value.
func (d *decoder) extra(e uint32) (int, bool) {
	n := uint(e&63) - uint(e>>8&15)
	if !d.need(n) {
		return 0, false
	}
	return int(e>>16&0x7fff) + int(d.take(n)), true
}
