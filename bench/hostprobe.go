package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"slices"
	"time"
)

// probeReferenceSeconds is what one run of the host probe takes on the
// reference host: this repository's 2-vCPU build host while no neighbour
// disturbs it. Timings are reported as on that host; see hostProbe.
const probeReferenceSeconds = 0.135

// hostProbe is a fixed piece of single-threaded work, none of it the
// program's, that the benchmark times right before every set-up and every
// rep to tell how fast the host runs at that moment. The host is a small VM
// on shared hardware: for seconds to minutes at a time a neighbour slows
// everything on it by up to a half, and ten runs of the same code then
// spread further than any bound the driver accepts. The slowdown is not the
// same for all code — arithmetic and streaming lose a tenth where scattered
// memory reads lose a half, the aligner a third — so the probe is five parts
// of equal length that lose as the program's layers do. Dividing each rep's
// processor time by its own probe's slowness (usage.onReferenceHost) takes
// out two thirds of the run-to-run spread of a rep's wall (README, "Sizing
// and steadiness").
type hostProbe struct {
	a, b  []byte // edit distance
	row   []int32
	text  []byte // deflate
	zbuf  bytes.Buffer
	zw    *flate.Writer
	keys  []uint64 // sort
	work  []uint64
	table []uint32 // gather
	index map[uint64]uint32
	sink  uint64
}

const probeIndexKeys = 1 << 20

// probeKey spreads i over the 64-bit keys of the probe's index.
func probeKey(i uint32) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 }

func newHostProbe() *hostProbe {
	rng := rand.New(rand.NewSource(1))
	p := &hostProbe{
		a: make([]byte, 400), b: make([]byte, 400), row: make([]int32, 401),
		text: make([]byte, 100<<10),
		keys: make([]uint64, 400_000), work: make([]uint64, 400_000),
		table: make([]uint32, 256<<10),
		index: make(map[uint64]uint32, probeIndexKeys),
	}
	for i := range p.a {
		p.a[i], p.b[i] = "ACGT"[rng.Intn(4)], "ACGT"[rng.Intn(4)]
	}
	for i := range p.text {
		p.text[i] = "ACGT"[rng.Intn(4)]
	}
	for i := range p.keys {
		p.keys[i] = rng.Uint64()
	}
	for i := range p.table {
		p.table[i] = rng.Uint32()
	}
	for i := uint32(0); i < probeIndexKeys; i++ {
		p.index[probeKey(i)] = i
	}
	p.zw, _ = flate.NewWriter(&p.zbuf, flate.DefaultCompression) // the level is valid
	return p
}

// xorshift is the next of a cheap pseudo-random sequence; x must not be 0.
func xorshift(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// run does the work once, about 30 ms a part on the reference host:
// edit-distance tables (the aligner's arithmetic), a deflate (the BGZF and
// chunk writers), a sort, independent reads scattered over 1 MiB and lookups
// in a hash map of a million keys (a seed index, a duplicate table).
func (p *hostProbe) run() time.Duration {
	t0 := time.Now()
	for k := 0; k < 75; k++ {
		row := p.row
		for j := range row {
			row[j] = int32(j)
		}
		for i := 1; i <= len(p.a); i++ {
			prev := row[0]
			row[0] = int32(i)
			for j := 1; j <= len(p.b); j++ {
				c := prev
				if p.a[i-1] != p.b[j-1] {
					c++
				}
				prev, row[j] = row[j], min(c, row[j]+1, row[j-1]+1)
			}
		}
		p.sink += uint64(row[len(p.b)])
	}
	p.zbuf.Reset()
	p.zw.Reset(&p.zbuf)
	p.zw.Write(p.text) // a bytes.Buffer does not fail
	p.zw.Close()
	p.sink += uint64(p.zbuf.Len())
	copy(p.work, p.keys)
	slices.Sort(p.work)
	p.sink += p.work[0]
	x, sum := uint32(p.sink)|1, uint32(0)
	for k := 0; k < 12_000_000; k++ {
		x = xorshift(x)
		sum += p.table[x%uint32(len(p.table))]
	}
	for k := 0; k < 500_000; k++ {
		x = xorshift(x)
		sum += p.index[probeKey(x%probeIndexKeys)]
	}
	p.sink += uint64(sum)
	return time.Since(t0)
}
