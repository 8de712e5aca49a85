// Package simulate models Persona's performance at paper scale: the
// single-server I/O experiments of Table 1 and Fig. 5, the thread-scaling
// curves of Fig. 6, and the cluster-scaling experiment of Fig. 7.
//
// The paper itself validates its >32-node claims with exactly this
// methodology: "we deploy multiple 'virtual' TensorFlow sessions per server
// and replace the CPU-intensive SNAP algorithm with a stub that simply
// suspends execution for the mean time required to align a chunk" (§5.5).
// This package is that stub methodology made explicit: calibrated rates
// plus a discrete-event/fluid model of disks, buffer cache, NICs and the
// Ceph cluster. Functional distributed behaviour (real chunk fan-out,
// real TCP phase server) lives in internal/cluster; absolute paper-scale
// numbers come from here.
package simulate

// PaperParams holds the calibrated paper-scale constants (§5.1–§5.2 and
// Table 1 of the paper).
type PaperParams struct {
	// Dataset: half of ERR174324.
	ReadLen    int     // 101 bases
	ChunkReads int     // 100,000 reads per AGD chunk
	NumChunks  int     // 2231 chunks
	TotalBases float64 // ≈22.53 Gbases

	// Compute.
	NodeRate        float64 // bases/s per node at 47 aligner threads (≈45.45e6)
	PhysicalCores   int     // 24 per node
	HyperthreadGain float64 // 2nd hyperthread adds 32% of a core (§5.4)

	// Single-server storage (Table 1).
	AGDReadBytes   float64 // bases+qual columns: ≈15 GB
	AGDWriteBytes  float64 // results column: ≈4 GB
	FASTQReadBytes float64 // gzipped FASTQ: ≈18 GB
	SAMWriteBytes  float64 // SAM text: ≈67 GB
	DiskBW         float64 // effective single-disk bandwidth, B/s
	RAIDDisks      int     // RAID0 width
	NICBW          float64 // 10GbE
	PipeBW         float64 // single-stream rados pipe effective B/s (§5.3 fn.1)

	// Ceph cluster (Fig. 7).
	CephReadBW  float64 // measured aggregate read peak: 6 GB/s
	CephWriteBW float64 // aggregate replicated-write capacity, B/s
	Replication int     // 3-way
	QueueDepth  int     // chunks in flight per node (shallow queues, §4.5)
	// StartupSeconds is the per-run ramp (session launch, first-chunk
	// fetch) included in end-to-end times: the paper measures "from the
	// beginning of the request to when all results are written back", and
	// its measured 32-node point sits at ~93% of its ideal line.
	StartupSeconds float64
}

// DefaultPaperParams returns the calibration internal/experiments uses.
func DefaultPaperParams() PaperParams {
	return PaperParams{
		ReadLen:    101,
		ChunkReads: 100_000,
		NumChunks:  2231,
		TotalBases: 2231 * 100_000 * 101, // 22.533 Gbases

		NodeRate:        45.45e6,
		PhysicalCores:   24,
		HyperthreadGain: 0.32,

		AGDReadBytes:   15e9,
		AGDWriteBytes:  4e9,
		FASTQReadBytes: 18e9,
		SAMWriteBytes:  67e9,
		DiskBW:         110e6,
		RAIDDisks:      6,
		NICBW:          1.25e9,
		PipeBW:         112e6,

		CephReadBW:  6e9,
		CephWriteBW: 1.45e9, // 70 disks × ~110 MB/s over 3× replication + journaling ≈ 1.45 GB/s
		Replication: 3,
		QueueDepth:  2,

		StartupSeconds: 1.0,
	}
}
