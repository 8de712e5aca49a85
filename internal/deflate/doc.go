// Package deflate is the repository's DEFLATE (RFC 1951) codec for the one
// shape its hot paths have: the whole input in memory and the exact output
// size known beforehand — the index sum of an AGD chunk member, the ISIZE of
// a BGZF block. Both directions work slice to slice, keep their tables in
// pooled state and allocate nothing per call.
//
// Inflate accepts every valid stream, whoever wrote it, and rejects what
// compress/flate rejects; that package is its reference in the tests.
// Deflate probes once a position into a 32 KiB match table, which stays in
// L1d beside the text it indexes where a 128 KiB one would make every probe
// wait on L2, and lets the data decide where to look: it prices a buffer's
// first 8 KiB with and without matches, stops looking for matches where they
// do not pay (quality strings), and codes every block by whichever of stored,
// literals-only and match coding its own histogram prices lowest. There is
// no level and no option. AppendGzip and Gunzip frame a stream as one RFC 1952
// member, which is what chunk members and BGZF blocks are on disk.
//
// Streams of unknown size — a .fastq.gz being imported — stay with
// compress/gzip.
package deflate
