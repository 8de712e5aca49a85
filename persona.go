// Package persona is a Go reproduction of "Persona: A High-Performance
// Bioinformatics Framework" (Byma et al., USENIX ATC 2017): a dataflow
// framework for cluster-scale bioinformatics built around the Aggregate
// Genomic Data (AGD) column-store format.
//
// The package is the public facade — the equivalent of the paper's thin
// client library (§4.1). Its primary abstraction is the Session/Pipeline
// pair: a Session owns the long-lived runtime (the store, one shared
// work-stealing executor, the chunk pools, a reference-index cache), and a
// Pipeline is a fluent, validated stage graph whose Run streams AGD chunks
// stage-to-stage over that runtime. A whole-genome preprocessing workflow
// is one composed graph — no intermediate dataset is written between
// stages (sort, a global barrier, spills temporary run blobs only):
//
//	sess := persona.NewSession(store, persona.SessionOptions{})
//	defer sess.Close()
//	report, err := sess.Read("patient").
//		Align(idx, persona.AlignOptions{}).
//		Sort(persona.ByLocation).
//		MarkDuplicates().
//		ExportSAM(os.Stdout).
//		Run(ctx)
//
// The stages cover the full pipeline the paper evaluates:
//
//   - FASTQ import into AGD and export to FASTQ/SAM/BAM (§5.7)
//   - single-server dataflow alignment with the SNAP-style aligner (§4.3)
//   - distributed alignment across worker nodes leasing chunks from the
//     cluster's phase server — the paper's manifest server (§5.2, §5.5)
//   - external-merge sorting by location or read ID (§4.3, Table 2)
//   - Samblaster-style duplicate marking on the results column (§5.6)
//   - filtering and pileup-based variant calling (§1, §8)
//
// Every stage also remains available as a one-shot free function (Align,
// Sort, MarkDuplicates, Filter, Export*, Import*, CallVariants) — thin
// wrappers that run a single stage against the store directly, for callers
// that do not need composition. Align and MarkDuplicates are literally the
// pipeline's stage between a dataset source and a column sink that writes
// the one column they produce back next to the others; the distributed
// forms run the same stages on every worker. All of them take a
// context.Context and honor cancellation per chunk.
//
// Storage backends (local directories, an in-memory store, and a Ceph-like
// replicated object store) implement the same BlobStore interface, so
// pipelines are storage-agnostic (§4.2). See ROADMAP.md for the map from
// paper sections to open work and PERF.md for measured results, including
// the fused-pipeline wall/alloc deltas.
package persona

import (
	"context"
	"io"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/align/bwa"
	"persona/internal/align/snap"
	"persona/internal/cluster"
	"persona/internal/core"
	"persona/internal/filter"
	"persona/internal/formats/bam"
	"persona/internal/formats/fastq"
	"persona/internal/formats/sam"
	"persona/internal/genome"
	"persona/internal/markdup"
	"persona/internal/storage"
	"persona/internal/varcall"
)

// Re-exported core types, so library users need only this package for the
// common paths.
type (
	// Store is the blob-storage interface datasets live in.
	Store = storage.Store
	// Manifest describes an AGD dataset.
	Manifest = agd.Manifest
	// Dataset provides read access to an AGD dataset.
	Dataset = agd.Dataset
	// Result is one alignment outcome record.
	Result = agd.Result
	// Genome is a reference genome.
	Genome = genome.Genome
	// Index is a SNAP-style reference seed index.
	Index = snap.Index
	// AlignReport summarizes a single-server alignment run.
	AlignReport = core.AlignReport
	// ClusterReport summarizes a distributed alignment run.
	ClusterReport = cluster.Report
	// SortKey names the sort order of a dataset.
	SortKey = agdsort.Key
	// DupStats reports a duplicate-marking pass.
	DupStats = markdup.Stats
	// StorageStats counts a resilient store's retry/hedge activity
	// (storage.RetryStats).
	StorageStats = storage.RetryStats
	// CacheStats counts the session chunk cache's hits, misses, fills and
	// evictions (agd.CacheStats).
	CacheStats = agd.CacheStats
	// SpillReport summarizes a sort's spill-compression decisions
	// (agdsort.SpillReport).
	SpillReport = agdsort.SpillReport
	// RetryPolicy tunes a resilient store wrapper (NewRetryStore).
	RetryPolicy = storage.RetryPolicy
	// FaultPolicy scripts a fault-injecting store wrapper (NewFaultStore).
	FaultPolicy = storage.FaultPolicy
	// OpFaults is a FaultPolicy's per-operation fault mix.
	OpFaults = storage.OpFaults
	// KeyFaults targets a fault mix at blobs whose name contains a substring.
	KeyFaults = storage.KeyFaults
)

// Sort orders.
const (
	ByLocation = agdsort.ByLocation
	ByMetadata = agdsort.ByMetadata
)

// NewLocalStore opens a Store over a local directory.
func NewLocalStore(dir string) (Store, error) { return storage.NewLocal(dir) }

// NewMemStore returns an in-memory Store (tests, experiments).
func NewMemStore() Store { return storage.NewMem() }

// NewObjectStore returns a Ceph-like replicated object store with the
// paper's testbed defaults (7 OSDs, 3-way replication).
func NewObjectStore() (*storage.ObjectStore, error) {
	return storage.NewObjectStore(storage.ObjectStoreConfig{})
}

// NewRetryStore wraps a Store with the resilience layer: per-attempt
// timeouts, capped exponential backoff with jitter, a retry budget,
// transient-vs-permanent classification, and hedged async reads. A Session
// over a resilient store surfaces its activity via Session.ResilienceStats
// and per-run in PipelineReport.Storage.
func NewRetryStore(inner Store, pol RetryPolicy) *storage.RetryStore {
	return storage.NewRetryStore(inner, pol)
}

// NewFaultStore wraps a Store with seeded deterministic fault injection
// (transient errors, latency spikes, stalls, corrupt reads) for chaos
// testing. Close it to unblock injected stalls.
func NewFaultStore(inner Store, pol FaultPolicy) *storage.FaultStore {
	return storage.NewFaultStore(inner, pol)
}

// SynthesizeGenome generates the deterministic synthetic reference used in
// place of hg19 (the real reference cannot ship with the repository).
func SynthesizeGenome(totalBases int, seed int64) (*Genome, error) {
	return genome.Synthesize(genome.DefaultSyntheticConfig(totalBases, seed))
}

// BuildIndex builds a SNAP-style seed index over a reference genome. When
// serving repeated requests, prefer Session.Index, which caches the build.
func BuildIndex(g *Genome) (*Index, error) {
	return snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
}

// RefSeqs derives manifest reference entries from a genome.
func RefSeqs(g *Genome) []agd.RefSeq { return agd.RefSeqsFromGenome(g) }

// ImportFASTQ converts a FASTQ stream into an AGD dataset and returns its
// manifest and record count — the one-stage form of the pipeline source
// Session.ImportFASTQ.
func ImportFASTQ(ctx context.Context, store Store, name string, src io.Reader, refs []agd.RefSeq, chunkSize int) (*Manifest, uint64, error) {
	return fastq.Import(ctx, store, name, src, fastq.ImportOptions{ChunkSize: chunkSize, RefSeqs: refs})
}

// OpenDataset opens an existing AGD dataset.
func OpenDataset(store Store, name string) (*Dataset, error) { return agd.Open(store, name) }

// AlignOptions configures Align.
type AlignOptions struct {
	// ExecutorThreads sizes the shared compute executor; 0 means 2. In a
	// Pipeline the executor is session-owned and this field is ignored.
	ExecutorThreads int
	// MaxDist is the aligner's maximum edit distance; 0 means 12.
	MaxDist int
	// Prefetch is the input stream's chunk-fetch window: how many chunks'
	// column blobs the pipeline keeps in flight, counting the one being
	// decoded. 1 fetches synchronously; 0 picks the pipeline default. In a
	// Pipeline the window is session-owned and this field is ignored.
	Prefetch int
}

// Align aligns a dataset in place on a single server, appending a results
// column — the one-stage form of Pipeline.Align, on an executor of its own.
func Align(ctx context.Context, store Store, dataset string, idx *Index, opts AlignOptions) (*AlignReport, *Manifest, error) {
	return core.Align(ctx, core.AlignConfig{
		Store:           store,
		Dataset:         dataset,
		Index:           idx,
		Aligner:         snap.Config{MaxDist: opts.MaxDist},
		ExecutorThreads: opts.ExecutorThreads,
		Prefetch:        opts.Prefetch,
	})
}

// AlignDistributed aligns a dataset across nodes worker nodes as a one-phase
// plan on the cluster's TCP phase server (§5.2's manifest server: one task
// per chunk, leased, heartbeat-guarded and re-dealt when a worker dies).
// Session.AlignDistributed is the form that shares a session's executor and
// warm index cache.
func AlignDistributed(ctx context.Context, store Store, dataset string, idx *Index, nodes, threadsPerNode int) (*ClusterReport, *Manifest, error) {
	return cluster.Align(ctx, store, dataset, idx, cluster.Config{
		Nodes:          nodes,
		ThreadsPerNode: threadsPerNode,
	})
}

// Sort externally sorts a dataset by the given key into outputName (empty
// for "<name>.sorted") and returns the sorted manifest — the one-stage form
// of the pipeline stage Pipeline.Sort.
func Sort(ctx context.Context, store Store, dataset string, by SortKey, outputName string) (*Manifest, error) {
	return agdsort.Sort(ctx, store, dataset, agdsort.Options{By: by, OutputName: outputName})
}

// MarkDuplicates flags duplicate reads in a dataset's results column — the
// one-stage form of Pipeline.MarkDuplicates.
func MarkDuplicates(ctx context.Context, store Store, dataset string) (DupStats, error) {
	return markdup.Mark(ctx, store, dataset)
}

// ExportSAM streams a dataset out as SAM text — the one-stage form of
// Pipeline.ExportSAM.
func ExportSAM(ctx context.Context, store Store, dataset string, dst io.Writer) (uint64, error) {
	ds, err := agd.Open(store, dataset)
	if err != nil {
		return 0, err
	}
	return sam.Export(ctx, ds, dst)
}

// ExportBAM streams a dataset out as BAM — the one-stage form of
// Pipeline.ExportBAM.
func ExportBAM(ctx context.Context, store Store, dataset string, dst io.Writer) (uint64, error) {
	ds, err := agd.Open(store, dataset)
	if err != nil {
		return 0, err
	}
	return bam.Export(ctx, ds, dst)
}

// ExportFASTQ streams a dataset's reads back out as FASTQ — the one-stage
// form of Pipeline.ExportFASTQ.
func ExportFASTQ(ctx context.Context, store Store, dataset string, dst io.Writer) (uint64, error) {
	ds, err := agd.Open(store, dataset)
	if err != nil {
		return 0, err
	}
	return fastq.Export(ctx, ds, dst)
}

// ImportSAM converts an aligned SAM stream into an AGD dataset with all
// four standard columns; reference sequences come from the @SQ header.
func ImportSAM(ctx context.Context, store Store, name string, src io.Reader, chunkSize int) (*Manifest, uint64, error) {
	return sam.Import(ctx, store, name, src, sam.ImportOptions{ChunkSize: chunkSize})
}

// Filter predicates, re-exported from internal/filter.
var (
	// FilterMappedOnly keeps aligned reads.
	FilterMappedOnly = filter.MappedOnly
	// FilterMinMapQ keeps reads at or above a mapping quality.
	FilterMinMapQ = filter.MinMapQ
	// FilterDropDuplicates keeps non-duplicate reads (run MarkDuplicates
	// first).
	FilterDropDuplicates = filter.DropDuplicates
	// FilterRegion keeps reads starting in [start, end) of the global
	// coordinate space.
	FilterRegion = filter.Region
	// FilterAnd combines predicates conjunctively.
	FilterAnd = filter.And
)

// FilterPredicate decides whether a record survives a Filter pass.
type FilterPredicate = filter.Predicate

// FilterStats reports a filter pass.
type FilterStats = filter.Stats

// Filter writes the subset of a dataset matching pred into outputName
// (empty for "<name>.filtered") — the one-stage form of Pipeline.Filter.
func Filter(ctx context.Context, store Store, dataset string, pred FilterPredicate, outputName string) (*Manifest, FilterStats, error) {
	return filter.Run(ctx, store, dataset, pred, filter.Options{OutputName: outputName})
}

// Variant is one called SNP.
type Variant = varcall.Variant

// CallVariants runs the pileup-based SNP caller over an aligned dataset
// (§8's variant-calling stage) with default options.
func CallVariants(ctx context.Context, store Store, dataset string, ref *Genome) ([]Variant, error) {
	ds, err := agd.Open(store, dataset)
	if err != nil {
		return nil, err
	}
	return varcall.CallDataset(ctx, ds, ref, varcall.NewOptions())
}

// WriteVCF renders variant calls as a VCF 4.2 stream.
func WriteVCF(w io.Writer, ref *Genome, variants []Variant) error {
	return varcall.WriteVCF(w, agd.RefSeqsFromGenome(ref), variants)
}

// BuildBWAIndex builds the FM-index used by the BWA alignment engine.
func BuildBWAIndex(g *Genome) (*bwa.FMIndex, error) { return bwa.NewFMIndex(g) }

// AlignBWA runs the single-server pipeline with the BWA-MEM-style engine.
func AlignBWA(ctx context.Context, store Store, dataset string, fm *bwa.FMIndex, g *Genome, paired bool) (*AlignReport, *Manifest, error) {
	return core.Align(ctx, core.AlignConfig{
		Store:   store,
		Dataset: dataset,
		Engine:  core.EngineBWA,
		FMIndex: fm,
		Genome:  g,
		Paired:  paired,
	})
}

// AlignPaired runs the single-server SNAP pipeline in paired-end mode
// (records 2i and 2i+1 form pairs).
func AlignPaired(ctx context.Context, store Store, dataset string, idx *Index, opts AlignOptions) (*AlignReport, *Manifest, error) {
	return core.Align(ctx, core.AlignConfig{
		Store:           store,
		Dataset:         dataset,
		Index:           idx,
		Aligner:         snap.Config{MaxDist: opts.MaxDist},
		ExecutorThreads: opts.ExecutorThreads,
		Prefetch:        opts.Prefetch,
		Paired:          true,
	})
}
