package deflate

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

const (
	numLit  = 286 // literals, end of block, length symbols
	numDist = 30
	eob     = 256

	minMatch = 4
	maxMatch = 258
	maxDist  = 32768

	// blockBytes is the most input one deflate block covers, so that a block
	// that does not compress is exactly one stored block.
	blockBytes = 65535
	maxSeqs    = blockBytes/minMatch + 1

	// measureAt is how much of a buffer is tokenised before the encoder asks
	// whether matches pay on it at all.
	measureAt = 8 << 10

	// The match finder hashes hashBytes bytes into 1<<hashBits slots. Six
	// bytes, not the minimum match's four: on records of short fields the
	// four-byte matches that turns up cost more to find and to code than they
	// save. After every 1<<skipShift probes that find nothing it steps one
	// byte further.
	hashBits  = 14
	hashBytes = 6
	skipShift = 5
	// maxInput keeps the positions of one hash generation within 31 bits;
	// anything longer is stored.
	maxInput = 1 << 30

	// Literal/length codewords stop at 14 bits so four of them and a partial
	// byte fit the 64-bit accumulator; distance codewords may use all 15.
	litCodeLimit  = 14
	distCodeLimit = 15
)

// seq is one tokeniser step: lits literal bytes, then a match.
type seq struct {
	lits   uint32
	length uint16
	dist   uint16
}

// lengthSym maps a match length − 3 to its length symbol − 257; distSym does
// the same for distances in two halves, the way zlib's _dist_code does.
var (
	lengthSym  [maxMatch - 3 + 1]uint8
	distSymTab [512]uint8
)

func distSym(dist uint16) uint8 {
	d := uint32(dist) - 1
	if d < 256 {
		return distSymTab[d]
	}
	return distSymTab[256+d>>7]
}

func init() {
	for s, base := range lengthBase {
		for l := int(base); l <= maxMatch && (s+1 == len(lengthBase) || l < int(lengthBase[s+1])); l++ {
			lengthSym[l-3] = uint8(s)
		}
	}
	for s, base := range distBase {
		for d := int(base) - 1; d < maxDist && (s+1 == len(distBase) || d < int(distBase[s+1])-1); d++ {
			if d < 256 {
				distSymTab[d] = uint8(s)
			} else {
				distSymTab[256+d>>7] = uint8(s)
			}
		}
	}
}

// blockCode is the prefix code of one dynamic block: per symbol the
// bit-reversed codeword in the low 16 bits and its length above, plus the
// header that describes it.
type blockCode struct {
	litLen  [numLit]uint8
	distLen [numDist]uint8
	lit     [numLit]uint32
	dist    [numDist]uint32

	// Header: code lengths run-length coded in precode symbols (symbol in
	// the low byte, its extra-bits value above).
	hlit, hdist, hclen int
	rle                [numLit + numDist]uint16
	nrle               int
	preLen             [numPrecode]uint8
	pre                [numPrecode]uint32
}

// encoder is the pooled state of one Deflate call.
type encoder struct {
	// hash maps the hash of hashBytes bytes to the last position they were
	// seen at, plus base, in the low half of an entry, and the first four of
	// those bytes in the high half, so a probe that cannot match is turned
	// away without touching the text. base moves past every position of
	// earlier buffers: their entries read as too far back, and the table is
	// never cleared per call — a 2 KiB member does not pay for 128 KiB.
	hash [1 << hashBits]uint64
	base uint32

	seqs    [maxSeqs]seq
	nseq    int
	lit     int // start of the literals not yet covered by a seq
	counted int // start of the literals not yet counted

	// litBits8 is eight times the average literal cost in bits under the
	// last code built, the price a short match has to beat.
	litBits8 int

	// Symbol counts of the block being gathered, kept as its seqs are: as
	// matches (lzHist, distHist, the literal bytes in litCount until a
	// pricing folds them in) and, when asked for, as literals only (allHist),
	// with the code built for each.
	lzHist, allHist [numLit]uint32
	distHist        [numDist]uint32
	lzCode, litCode blockCode
	litCount        byteCounts
	allCount        byteCounts

	// Huffman construction scratch.
	sorted, sortTmp [numLit]uint32
	weight          [2 * numLit]uint32
	parent          [2 * numLit]uint16
	depth           [2 * numLit]uint8

	out    []byte
	pos    int
	bitbuf uint64
	nbits  uint
}

var encoderPool = sync.Pool{New: func() any { return &encoder{base: maxDist + 1} }}

// StoredSize is the size of n bytes written as stored blocks, which bounds
// what Deflate appends for an n-byte src.
func StoredSize(n int) int {
	if n == 0 {
		return 5
	}
	return n + 5*((n+blockBytes-1)/blockBytes)
}

// Deflate appends src to dst as one complete RFC 1951 stream and returns the
// extended slice, never more than StoredSize(len(src)) bytes longer. The
// effort is that of a level-1 encoder: a single-probe match finder whose
// short matches must beat the literals they replace, and per block whichever
// of stored, literals-only and match coding the block's own histogram prices
// lowest. When matches save less than a thirty-second over literals alone on
// a buffer's first 8 KiB, or on any block, the match finder stays off for the
// rest of the buffer; when they save over an eighth there, later blocks are
// not priced without them. A src of more than 1 GiB is stored. The output
// depends only on src.
func Deflate(dst, src []byte) []byte {
	e := encoderPool.Get().(*encoder)
	dst = e.deflate(dst, src)
	encoderPool.Put(e)
	return dst
}

func (e *encoder) deflate(dst, src []byte) []byte {
	if len(src) > maxInput {
		return appendStored(dst, src)
	}
	base := len(dst)
	e.out, e.pos, e.bitbuf, e.nbits = dst[:cap(dst)], base, 0, 0
	e.blocks(src)
	e.reserve(8)
	binary.LittleEndian.PutUint64(e.out[e.pos:], e.bitbuf)
	dst = e.out[:e.pos+int(e.nbits+7)>>3]
	e.out = nil // do not pin the caller's buffer from the pool
	if len(dst)-base > StoredSize(len(src)) {
		dst = appendStored(dst[:base], src)
	}
	return dst
}

// appendStored appends src as stored blocks, the last one final.
func appendStored(dst, src []byte) []byte {
	for {
		n := min(len(src), blockBytes)
		final := byte(0)
		if n == len(src) {
			final = 1
		}
		dst = append(dst, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst = append(dst, src[:n]...)
		if src = src[n:]; final != 0 {
			return dst
		}
	}
}

// reserve makes room for n more bytes at e.pos.
func (e *encoder) reserve(n int) {
	if len(e.out)-e.pos < n {
		e.out = slices.Grow(e.out[:e.pos], n)
		e.out = e.out[:cap(e.out)]
	}
}

// blocks encodes src as a run of blocks, the last one final.
func (e *encoder) blocks(src []byte) {
	// Entries of earlier buffers must read as more than maxDist back.
	if e.base > 1<<32-1-2*maxInput {
		clear(e.hash[:])
		e.base = maxDist + 1
	}
	e.litBits8 = 6 * 8
	// lz: matches are looked for. sure: the first look found them saving so
	// much that no block needs pricing without them.
	lz, sure := true, false
	for from := 0; ; {
		to := min(from+blockBytes, len(src))
		e.startBlock(from)
		if lz {
			s := from
			if from == 0 && to > measureAt {
				s = e.tokenise(src, s, measureAt, to)
				lzBits, litBits := e.price(src, 0, s, true)
				lz, sure = pays(lzBits, litBits), lzBits+litBits>>3 < litBits
				if !lz {
					e.startBlock(from)
				}
			}
			if lz {
				e.tokenise(src, s, to, to)
			}
		}
		lz = e.writeBlock(src, from, to, to == len(src), !sure) && lz
		if from = to; from == len(src) {
			break
		}
	}
	e.base += uint32(len(src)) + maxDist
}

func (e *encoder) startBlock(from int) {
	e.nseq, e.lit, e.counted = 0, from, from
	e.litCount = byteCounts{}
	clear(e.lzHist[257:])
	clear(e.distHist[:])
}

func hashN(v uint64) uint32 {
	return uint32(v << (64 - 8*hashBytes) * 0x9E3779B185EBCA87 >> (64 - hashBits))
}

// tokenise looks for matches starting in src[s:scanEnd], none reaching past
// blockEnd, and appends them to e.seqs with the literals before them. It
// returns where it stopped looking, at most blockEnd, which a later call may
// continue from.
func (e *encoder) tokenise(src []byte, s, scanEnd, blockEnd int) int {
	scanEnd = min(scanEnd, blockEnd-8+1)
	base, tab := e.base, &e.hash
	litBits8 := e.litBits8
	miss := 0
	for s < scanEnd {
		cur := binary.LittleEndian.Uint64(src[s:])
		h := hashN(cur)
		ref := tab[h]
		tab[h] = uint64(uint32(s)+base) | cur<<32
		back := uint32(s) + base - uint32(ref)
		if back-1 >= maxDist || uint32(ref>>32) != uint32(cur) {
			// Step faster the longer nothing has matched.
			s += 1 + miss>>skipShift
			miss++
			continue
		}
		length := minMatch + matchLen(src[s+minMatch:min(s+maxMatch, blockEnd)], src[s-int(back)+minMatch:])
		if length < 8 {
			// A short, far match can cost more than its literals would:
			// about 12 bits of codewords plus the distance's extra bits,
			// which are its bit length less two.
			if (10+bits.Len32(back))*8 > length*litBits8 {
				s++
				continue
			}
		}
		miss = 0
		e.seqs[e.nseq] = seq{lits: uint32(s - e.lit), length: uint16(length), dist: uint16(back)}
		e.nseq++
		e.litCount.add(src[e.counted:s])
		e.lzHist[257+int(lengthSym[length-3])]++
		e.distHist[distSym(uint16(back))]++
		s += length
		e.lit, e.counted = s, s
		// Index the match's last position, so a run that repeats is found
		// again right behind it.
		if s < scanEnd {
			v := binary.LittleEndian.Uint64(src[s-1:])
			tab[hashN(v)] = uint64(uint32(s-1)+base) | v<<32
		}
	}
	// A step over misses may have carried s past the block.
	return min(s, blockEnd)
}

// matchLen returns how many leading bytes of a equal those of b; b is the
// earlier text and never the shorter one.
func matchLen(a, b []byte) int {
	n := 0
	for ; len(a)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < len(a) && a[n] == b[n]; n++ {
	}
	return n
}

// byteCounts counts bytes in four interleaved tables, so that equal
// neighbours do not serialise on one counter; sum adds the tables up.
type byteCounts [4][256]uint32

func (h *byteCounts) add(p []byte) {
	for ; len(p) >= 4; p = p[4:] {
		h[0][p[0]]++
		h[1][p[1]]++
		h[2][p[2]]++
		h[3][p[3]]++
	}
	for _, b := range p {
		h[0][b]++
	}
}

func (h *byteCounts) sum(hist *[numLit]uint32) {
	for i := range h[0] {
		hist[i] = h[0][i] + h[1][i] + h[2][i] + h[3][i]
	}
}

// price builds e.lzCode for src[from:to], the block being gathered as far as
// it has been looked at, coded as the seqs gathered so far; if there are seqs
// and literals is set, it also builds e.litCode for the same bytes as
// literals only. It returns both codings' sizes in bits: litBits equals
// lzBits when there are no seqs to tell them apart, and is unpriced when
// there are but literals is not set.
func (e *encoder) price(src []byte, from, to int, literals bool) (lzBits, litBits int) {
	e.litCount.add(src[e.counted:to])
	e.counted = to
	e.litCount.sum(&e.lzHist)
	lzBits = e.lzCode.build(e, &e.lzHist, &e.distHist)
	if e.nseq == 0 {
		return lzBits, lzBits
	}
	// What a literal costs next to matches is what a short match must beat.
	var n, b int
	for s, f := range e.lzHist[:256] {
		n += int(f)
		b += int(f) * int(e.lzCode.litLen[s])
	}
	if n > 0 {
		e.litBits8 = b * 8 / n
	}
	if !literals {
		return lzBits, unpriced
	}
	clear(e.allHist[256:])
	e.allCount = byteCounts{}
	e.allCount.add(src[from:to])
	e.allCount.sum(&e.allHist)
	return lzBits, e.litCode.build(e, &e.allHist, &noDistances)
}

var noDistances [numDist]uint32

// unpriced stands for the size of a coding that was not priced: it loses to
// any that was.
const unpriced = math.MaxInt32

// pays reports whether match coding saves enough over literals only — a
// thirty-second of the size — to be worth looking for matches at all.
func pays(lzBits, litBits int) bool { return lzBits+litBits>>5 < litBits }

// writeBlock prices src[from:to] as matches (the seqs gathered, if any), as
// literals only if asked to, and as a stored block, writes the cheapest, and
// reports whether matches paid.
func (e *encoder) writeBlock(src []byte, from, to int, final, literals bool) bool {
	dyn, litBits := e.price(src, from, to, literals)
	lzPays := pays(dyn, litBits)
	seqs, code := e.seqs[:e.nseq], &e.lzCode
	if len(seqs) > 0 && litBits <= dyn { // with no seqs they are one coding
		seqs, code, dyn = nil, &e.litCode, litBits
	}

	hdr := uint64(0)
	if final {
		hdr = 1
	}
	// A stored block pads to a byte boundary after its three header bits.
	stored := 3 + int(-(e.nbits+3)&7) + 32 + 8*(to-from)
	if stored <= dyn {
		e.reserve(16 + to - from)
		e.putBits(hdr, 3)
		e.pos += int(e.nbits+7) >> 3
		e.bitbuf, e.nbits = 0, 0
		n := to - from
		binary.LittleEndian.PutUint16(e.out[e.pos:], uint16(n))
		binary.LittleEndian.PutUint16(e.out[e.pos+2:], ^uint16(n))
		copy(e.out[e.pos+4:], src[from:to])
		e.pos += 4 + n
		return false
	}
	e.reserve(dyn>>3 + 16)
	e.putBits(hdr|2<<1, 3)
	e.writeHeader(code)
	e.writeTokens(code, src, from, to, seqs)
	return lzPays
}

// putBits adds n ≤ 32 bits to the accumulator and writes out its whole
// bytes; room for eight more bytes must have been reserved.
func (e *encoder) putBits(v uint64, n uint) {
	e.bitbuf |= v << e.nbits
	e.nbits += n
	e.flushBits()
}

// flushBits stores the accumulator and keeps only its partial byte.
func (e *encoder) flushBits() {
	binary.LittleEndian.PutUint64(e.out[e.pos:], e.bitbuf)
	e.pos += int(e.nbits >> 3)
	e.bitbuf >>= e.nbits &^ 7
	e.nbits &= 7
}

func (e *encoder) writeHeader(c *blockCode) {
	e.putBits(uint64(c.hlit-257)|uint64(c.hdist-1)<<5|uint64(c.hclen-4)<<10, 14)
	for _, s := range precodeOrder[:c.hclen] {
		e.putBits(uint64(c.preLen[s]), 3)
	}
	for _, r := range c.rle[:c.nrle] {
		sym := r & 0xff
		p := c.pre[sym]
		e.putBits(uint64(p&0xffff), uint(p>>16))
		switch sym {
		case 16:
			e.putBits(uint64(r>>8), 2)
		case 17:
			e.putBits(uint64(r>>8), 3)
		case 18:
			e.putBits(uint64(r>>8), 7)
		}
	}
}

// writeTokens writes the block body: each seq's literals and match, the
// literals after the last match, and the end-of-block symbol.
func (e *encoder) writeTokens(c *blockCode, src []byte, from, to int, seqs []seq) {
	out, pos, bitbuf, nbits := e.out, e.pos, e.bitbuf, e.nbits
	lit := &c.lit
	p := from
	for i := 0; i <= len(seqs); i++ {
		end := to
		if i < len(seqs) {
			end = p + int(seqs[i].lits)
		}
		run := src[p:end]
		for ; len(run) >= 4; run = run[4:] {
			c0, c1, c2, c3 := lit[run[0]], lit[run[1]], lit[run[2]], lit[run[3]]
			bitbuf |= uint64(c0&0xffff) << nbits
			nbits += uint(c0 >> 16)
			bitbuf |= uint64(c1&0xffff) << (nbits & 63)
			nbits += uint(c1 >> 16)
			bitbuf |= uint64(c2&0xffff) << (nbits & 63)
			nbits += uint(c2 >> 16)
			bitbuf |= uint64(c3&0xffff) << (nbits & 63)
			nbits += uint(c3 >> 16)
			binary.LittleEndian.PutUint64(out[pos:], bitbuf)
			pos += int(nbits >> 3)
			bitbuf >>= nbits &^ 7
			nbits &= 7
		}
		for _, b := range run {
			c0 := lit[b]
			bitbuf |= uint64(c0&0xffff) << nbits
			nbits += uint(c0 >> 16)
		}
		// Up to three literals are pending: at most 7+42 bits.
		if i == len(seqs) {
			break
		}
		binary.LittleEndian.PutUint64(out[pos:], bitbuf)
		pos += int(nbits >> 3)
		bitbuf >>= nbits &^ 7
		nbits &= 7

		q := seqs[i]
		ls := lengthSym[q.length-3]
		cw := lit[257+int(ls)]
		bitbuf |= uint64(cw&0xffff) << nbits
		nbits += uint(cw >> 16)
		bitbuf |= uint64(q.length-lengthBase[ls]) << (nbits & 63)
		nbits += uint(lengthExtra[ls])
		ds := distSym(q.dist)
		cw = c.dist[ds]
		bitbuf |= uint64(cw&0xffff) << (nbits & 63)
		nbits += uint(cw >> 16)
		bitbuf |= uint64(q.dist-distBase[ds]) << (nbits & 63)
		nbits += uint(distExtra[ds])
		// 7 + 14+5 + 15+13 = 54 bits at most.
		binary.LittleEndian.PutUint64(out[pos:], bitbuf)
		pos += int(nbits >> 3)
		bitbuf >>= nbits &^ 7
		nbits &= 7
		p = end + int(q.length)
	}
	binary.LittleEndian.PutUint64(out[pos:], bitbuf)
	pos += int(nbits >> 3)
	bitbuf >>= nbits &^ 7
	nbits &= 7
	cw := lit[eob]
	bitbuf |= uint64(cw&0xffff) << nbits
	nbits += uint(cw >> 16)
	e.pos, e.bitbuf, e.nbits = pos, bitbuf, nbits
	e.flushBits()
}

// extraBits counts the extra bits of a block's length and distance symbols.
func extraBits(litHist *[numLit]uint32, distHist *[numDist]uint32) int {
	n := 0
	for s, f := range litHist[257:] {
		n += int(f) * int(lengthExtra[s])
	}
	for s, f := range distHist {
		n += int(f) * int(distExtra[s])
	}
	return n
}

// build makes c the dynamic code of a block with the given histograms (the
// end-of-block symbol is counted here) and returns the block's exact size in
// bits: block header, code description, symbols and extra bits.
func (c *blockCode) build(e *encoder, litHist *[numLit]uint32, distHist *[numDist]uint32) int {
	litHist[eob] = 1
	e.codeLengths(c.litLen[:], litHist[:], litCodeLimit)
	e.codeLengths(c.distLen[:], distHist[:], distCodeLimit)
	assignCodes(c.lit[:], c.litLen[:])
	assignCodes(c.dist[:], c.distLen[:])

	n := 3 + extraBits(litHist, distHist)
	for s, f := range litHist {
		n += int(f) * int(c.litLen[s])
	}
	for s, f := range distHist {
		n += int(f) * int(c.distLen[s])
	}

	c.hlit, c.hdist = numLit, numDist
	for c.hlit > 257 && c.litLen[c.hlit-1] == 0 {
		c.hlit--
	}
	for c.hdist > 1 && c.distLen[c.hdist-1] == 0 {
		c.hdist--
	}
	// Run-length code the two length lists as one, as the format allows.
	var lens [numLit + numDist]uint8
	copy(lens[:], c.litLen[:c.hlit])
	copy(lens[c.hlit:], c.distLen[:c.hdist])
	var preHist [numPrecode]uint32
	c.nrle = 0
	emit := func(sym, extra int) {
		c.rle[c.nrle] = uint16(sym | extra<<8)
		c.nrle++
		preHist[sym]++
	}
	all := lens[:c.hlit+c.hdist]
	for i := 0; i < len(all); {
		l := all[i]
		run := 1
		for i+run < len(all) && all[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else if run >= 4 {
			emit(int(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(int(l), 0)
		}
	}
	e.codeLengths(c.preLen[:], preHist[:], 7)
	assignCodes(c.pre[:], c.preLen[:])
	c.hclen = numPrecode
	for c.hclen > 4 && c.preLen[precodeOrder[c.hclen-1]] == 0 {
		c.hclen--
	}
	n += 14 + 3*c.hclen + 2*int(preHist[16]) + 3*int(preHist[17]) + 7*int(preHist[18])
	for s, f := range preHist {
		n += int(f) * int(c.preLen[s])
	}
	return n
}

// codeLengths sets lens to the codeword lengths of a Huffman code for freq
// with none longer than limit. Fewer than two used symbols still get a
// complete code — two one-bit codewords — which every inflater accepts.
func (e *encoder) codeLengths(lens []uint8, freq []uint32, limit int) {
	// Used symbols as weight<<16 | symbol; no weight exceeds blockBytes.
	n := 0
	for s, f := range freq {
		lens[s] = 0
		if f != 0 {
			e.sorted[n] = f<<16 | uint32(s)
			n++
		}
	}
	if n < 2 {
		s := 0
		if n == 1 {
			s = int(e.sorted[0] & 0xffff)
		}
		lens[s] = 1
		if s == 0 {
			lens[1] = 1
		} else {
			lens[0] = 1
		}
		return
	}
	// Order them by weight, ties by symbol: a few by insertion, many by two
	// stable byte-wise passes.
	sorted, tmp := e.sorted[:n], e.sortTmp[:n]
	if n <= 40 {
		for i := 1; i < n; i++ {
			v, j := sorted[i], i
			for ; j > 0 && sorted[j-1] > v; j-- {
				sorted[j] = sorted[j-1]
			}
			sorted[j] = v
		}
	} else {
		for shift := 16; shift < 32; shift += 8 {
			var at [257]int
			for _, v := range sorted {
				at[v>>shift&0xff+1]++
			}
			for i := 1; i < 256; i++ {
				at[i] += at[i-1]
			}
			for _, v := range sorted {
				tmp[at[v>>shift&0xff]] = v
				at[v>>shift&0xff]++
			}
			sorted, tmp = tmp, sorted
		}
	}

	// Two-queue construction: leaves 0..n-1 in rising weight, internal nodes
	// n..2n-2 in the order made, which is rising weight too.
	w, parent := e.weight[:2*n-1], e.parent[:2*n-1]
	for i, v := range sorted {
		w[i] = v >> 16
	}
	leaf, node := 0, n
	for k := n; k < 2*n-1; k++ {
		var pair [2]int
		for j := range pair {
			if leaf < n && (node >= k || w[leaf] <= w[node]) {
				pair[j] = leaf
				leaf++
			} else {
				pair[j] = node
				node++
			}
		}
		w[k] = w[pair[0]] + w[pair[1]]
		parent[pair[0]], parent[pair[1]] = uint16(k), uint16(k)
	}
	depth := e.depth[:2*n-1]
	depth[2*n-2] = 0
	for k := 2*n - 3; k >= n; k-- {
		depth[k] = depth[parent[k]] + 1
	}
	var count [maxCodeLen + 1]int
	for i := 0; i < n; i++ {
		count[min(int(depth[parent[i]])+1, limit)]++
	}
	// Leaves cut back to the limit over-subscribe the code by `over` codewords
	// of that length. zlib's repair, one codeword a step: the deepest leaf
	// above the limit becomes the parent of two leaves a level down, one of
	// them taken from the limit.
	over := -(1 << limit)
	for l := 1; l <= limit; l++ {
		over += count[l] << (limit - l)
	}
	for ; over > 0; over-- {
		l := limit - 1
		for count[l] == 0 {
			l--
		}
		count[l]--
		count[l+1] += 2
		count[limit]--
	}
	// Rarest symbols take the longest codewords.
	i := 0
	for l := limit; l >= 1; l-- {
		for k := count[l]; k > 0; k-- {
			lens[sorted[i]&0xffff] = uint8(l)
			i++
		}
	}
}

// assignCodes fills codes with the canonical codewords of lens, bit-reversed
// for an LSB-first stream, each with its length in the bits above 16.
func assignCodes(codes []uint32, lens []uint8) {
	var count [maxCodeLen + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [maxCodeLen + 1]uint32
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		if l == 0 {
			codes[s] = 0
			continue
		}
		codes[s] = uint32(bits.Reverse16(uint16(next[l]))>>(16-l)) | uint32(l)<<16
		next[l]++
	}
}
