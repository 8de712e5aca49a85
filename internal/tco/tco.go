// Package tco implements the total-cost-of-ownership analysis of §6.1 and
// Table 3: cluster hardware costs, the 5-year TCO factor, cost per
// alignment, per-genome storage cost, and the Amazon Glacier comparison.
package tco

import (
	"fmt"
	"time"
)

// Model holds the cost parameters. Defaults reproduce Table 3.
type Model struct {
	ComputeServerCost float64 // $ per compute server
	StorageServerCost float64 // $ per storage server
	FabricPortCost    float64 // $ per used fabric port

	ComputeServers int
	StorageServers int
	FabricPorts    int

	// TCOFactor scales hardware cost to 5-year TCO (power, cooling,
	// facility, administration — the Hamilton datacenter-cost model the
	// paper cites). Table 3's $613K → $943K implies ≈1.538.
	TCOFactor float64
	Years     float64

	// SecondsPerAlignment is one server's end-to-end time per genome
	// (≈600 s: 22.53 Gbases at 45.45 Mbases/s plus I/O overhead).
	SecondsPerAlignment float64

	// Storage capacity/cost parameters.
	UsableCapacityTB float64 // storage cluster usable capacity (126 TB)
	GenomeSizeGB     float64 // AGD genome size (16 GB)

	// GlacierPerGBMonth is Amazon Glacier's $/GB/month price the paper
	// quotes ($0.007).
	GlacierPerGBMonth float64
}

// Default returns the paper's Table 3 parameters.
func Default() Model {
	return Model{
		ComputeServerCost: 8450,
		StorageServerCost: 7575,
		FabricPortCost:    792,

		ComputeServers: 60,
		StorageServers: 7,
		FabricPorts:    67,

		TCOFactor: 1.538,
		Years:     5,

		SecondsPerAlignment: 600,

		UsableCapacityTB: 126,
		GenomeSizeGB:     16,

		GlacierPerGBMonth: 0.007,
	}
}

// LineItem is one row of the Table 3 cost table.
type LineItem struct {
	Item     string
	UnitCost float64
	Units    int
	Total    float64
}

// Report is the full Table 3 plus the §6.1 derived quantities.
type Report struct {
	Items         []LineItem
	HardwareTotal float64
	TCO5yr        float64

	AlignmentsPerDay    float64 // cluster capacity at 100% utilization
	CostPerAlignment    float64 // dollars
	GenomesStorable     float64 // usable capacity / genome size
	StoragePerGenome    float64 // storage-server cost / capacity in genomes
	GlacierPerGenome5yr float64 // Glacier cost of one genome for the lifetime

	// Single-server scenario (§6.1 case 1).
	SingleServerAlignmentsPerDay float64
	SingleServerCostPerAlignment float64
}

// Evaluate computes the report.
func (m Model) Evaluate() (Report, error) {
	if m.ComputeServers <= 0 || m.SecondsPerAlignment <= 0 || m.Years <= 0 {
		return Report{}, fmt.Errorf("tco: invalid model %+v", m)
	}
	r := Report{
		Items: []LineItem{
			{Item: "Compute Server", UnitCost: m.ComputeServerCost, Units: m.ComputeServers,
				Total: m.ComputeServerCost * float64(m.ComputeServers)},
			{Item: "Storage server", UnitCost: m.StorageServerCost, Units: m.StorageServers,
				Total: m.StorageServerCost * float64(m.StorageServers)},
			{Item: "Fabric ports", UnitCost: m.FabricPortCost, Units: m.FabricPorts,
				Total: m.FabricPortCost * float64(m.FabricPorts)},
		},
	}
	for _, it := range r.Items {
		r.HardwareTotal += it.Total
	}
	r.TCO5yr = r.HardwareTotal * m.TCOFactor

	perServerPerDay := 86400 / m.SecondsPerAlignment
	r.AlignmentsPerDay = perServerPerDay * float64(m.ComputeServers)
	lifetimeAlignments := r.AlignmentsPerDay * 365 * m.Years
	r.CostPerAlignment = r.TCO5yr / lifetimeAlignments

	r.GenomesStorable = m.UsableCapacityTB * 1000 / m.GenomeSizeGB
	storageCost := m.StorageServerCost * float64(m.StorageServers)
	r.StoragePerGenome = storageCost / r.GenomesStorable
	r.GlacierPerGenome5yr = m.GlacierPerGBMonth * m.GenomeSizeGB * 12 * m.Years

	r.SingleServerAlignmentsPerDay = perServerPerDay
	r.SingleServerCostPerAlignment = m.ComputeServerCost * m.TCOFactor /
		(perServerPerDay * 365 * m.Years)
	return r, nil
}

// ScaleForGenomes returns the compute/storage machine counts needed to
// sequence-and-store the given number of genomes per day, respecting the
// paper's 60:7 compute-to-storage "not to exceed" ratio (§6.1 case 3).
func (m Model) ScaleForGenomes(genomesPerDay float64) (computeServers, storageServers int) {
	perServerPerDay := 86400 / m.SecondsPerAlignment
	computeServers = int(genomesPerDay/perServerPerDay + 0.999)
	if computeServers < 1 {
		computeServers = 1
	}
	// One storage server per 60/7 compute servers, rounded up.
	storageServers = (computeServers*7 + 59) / 60
	if storageServers < 1 {
		storageServers = 1
	}
	return computeServers, storageServers
}

// CPUHourRate is the model's dollars per compute-server hour over the
// ownership period — the rate storage-aware runtime policies use to price
// CPU they spend against transfer time they save.
func (m Model) CPUHourRate() float64 {
	return m.ComputeServerCost * m.TCOFactor / (m.Years * 365 * 24)
}

// StorageProfile is the measured read behavior of the attached store, as
// reported by storage.RetryStore.ReadProfile: the evidence a storage-aware
// policy decides on. A zero Samples count means the store is unprofiled and
// policies must not guess.
type StorageProfile struct {
	ReadLatency time.Duration // median per-read latency
	ReadMBps    float64       // mean observed throughput, MB/s
	Samples     int           // reads behind the numbers
}

// SpillPolicy prices compressing a sort's spilled superchunk run against
// writing it raw, using the measured store profile (BioWorkbench's point:
// drive storage/compression choices from workload measurements, not flags).
// Compressing trades CPU seconds — compress at spill, decompress at merge —
// for transfer seconds on both the Put and the later Get of the run. On a
// local store the transfer is nearly free and compression always loses; on
// a remote store past the crossover run size, transfer dominates and
// compression wins. Both sides are priced through the TCO model's $/CPU-hour
// so the decision is a dollar comparison, also usable for accounting.
type SpillPolicy struct {
	Profile StorageProfile
	// CompressMBps and DecompressMBps are the chunk codec's encode and
	// decode rates on run payloads; Ratio is the compressed size fraction.
	// Zero values take the defaults below.
	CompressMBps   float64
	DecompressMBps float64
	Ratio          float64
	// LocalLatency is the read latency at or below which the store is
	// considered local and spills are never compressed. Zero takes
	// DefaultLocalLatency.
	LocalLatency time.Duration
	// DollarsPerCPUHour prices the CPU side; zero takes the default
	// model's CPUHourRate.
	DollarsPerCPUHour float64
}

// Defaults for SpillPolicy's zero fields.
const (
	// DefaultCompressMBps, DefaultDecompressMBps and DefaultSpillRatio are
	// what one core does to a superchunk run — rows of uvarint-prefixed
	// packed bases, qualities, metadata and results — through the chunk
	// codec (internal/deflate gzip members, CRC-32 and footer included), as
	// BenchmarkSpillRunCodec in internal/agdsort measures it: 154 MB/s in,
	// 334 MB/s out, 0.62 of the size. (compress/gzip at BestSpeed, which
	// earlier releases used, does 77 and 115 MB/s and 0.64 on the same run;
	// the 120 / 400 / 0.45 once written here were column-wise figures no run
	// payload reached.) They put the break-even store throughput,
	// 2(1−ratio) / (1/in + ratio/out), at ≈ 90 MB/s.
	DefaultCompressMBps   = 150
	DefaultDecompressMBps = 335
	DefaultSpillRatio     = 0.62
	// DefaultLocalLatency separates local disks (sub-millisecond to ~2 ms
	// reads) from anything with real round trips.
	DefaultLocalLatency = 2 * time.Millisecond
)

// SpillDecision is the priced outcome for one run.
type SpillDecision struct {
	Compress bool
	RunBytes int64
	// TransferSavedSec is the wall the smaller payload saves across the
	// run's Put and later Get; CPUSpentSec what encode+decode cost.
	TransferSavedSec float64
	CPUSpentSec      float64
	// DollarDelta is CPU spent minus transfer saved, priced at the CPU-hour
	// rate: negative means compressing is the cheaper run.
	DollarDelta float64
	// Reason is a short machine-greppable tag: "unprofiled", "local",
	// "transfer-dominated" or "cpu-dominated".
	Reason string
}

// Decide prices one spill run of the given size.
func (p SpillPolicy) Decide(runBytes int64) SpillDecision {
	d := SpillDecision{RunBytes: runBytes}
	compressMBps := p.CompressMBps
	if compressMBps <= 0 {
		compressMBps = DefaultCompressMBps
	}
	decompressMBps := p.DecompressMBps
	if decompressMBps <= 0 {
		decompressMBps = DefaultDecompressMBps
	}
	ratio := p.Ratio
	if ratio <= 0 || ratio >= 1 {
		ratio = DefaultSpillRatio
	}
	localLat := p.LocalLatency
	if localLat <= 0 {
		localLat = DefaultLocalLatency
	}
	rate := p.DollarsPerCPUHour
	if rate <= 0 {
		rate = Default().CPUHourRate()
	}
	mb := float64(runBytes) / 1e6
	d.CPUSpentSec = mb/compressMBps + ratio*mb/decompressMBps
	if p.Profile.Samples == 0 {
		// No evidence about the store; never burn CPU on a guess.
		d.Reason = "unprofiled"
		d.DollarDelta = d.CPUSpentSec * rate / 3600
		return d
	}
	if p.Profile.ReadLatency <= localLat {
		d.Reason = "local"
		d.DollarDelta = d.CPUSpentSec * rate / 3600
		return d
	}
	if p.Profile.ReadMBps > 0 {
		// The run is written once and read back once at merge; the smaller
		// payload saves (1-ratio) of both transfers.
		d.TransferSavedSec = 2 * mb * (1 - ratio) / p.Profile.ReadMBps
	}
	d.DollarDelta = (d.CPUSpentSec - d.TransferSavedSec) * rate / 3600
	if d.TransferSavedSec > d.CPUSpentSec {
		d.Compress = true
		d.Reason = "transfer-dominated"
	} else {
		d.Reason = "cpu-dominated"
	}
	return d
}
