// Package tco implements the total-cost-of-ownership analysis of §6.1 and
// Table 3: cluster hardware costs, the 5-year TCO factor, cost per
// alignment, per-genome storage cost, and the Amazon Glacier comparison.
// It predicts what the paper reports; no runtime path consults it.
package tco

import "fmt"

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
