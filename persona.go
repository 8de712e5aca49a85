// Package persona is a Go reproduction of "Persona: A High-Performance
// Bioinformatics Framework" (Byma et al., USENIX ATC 2017): a dataflow
// framework for cluster-scale bioinformatics built around the Aggregate
// Genomic Data (AGD) column-store format.
//
// The package is the public facade — the equivalent of the paper's thin
// client library (§4.1). Its primary abstraction is the Session/Pipeline
// pair: a Session owns the long-lived runtime (the store, one shared
// executor, the decoded-chunk cache, a reference-index cache), and a
// Pipeline is a fluent, validated stage graph whose Run streams AGD chunks
// stage-to-stage over that runtime. A whole-genome preprocessing workflow
// is one composed graph — nothing intermediate is written to the store
// (sort, a global barrier, keeps its sorted runs in memory):
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
// Sort, MarkDuplicates, Filter, Export*, ImportFASTQ, ImportSAM,
// CallVariants) for callers that do not need composition. Each is a
// one-stage Pipeline, run serially on a session of its own that it closes
// before returning: Sort and Filter end in a Write sink, the exports in
// theirs, ImportFASTQ and ImportSAM are the FASTQ and SAM sources into a
// Write sink, CallVariants ends in a pileup sink, and Align and
// MarkDuplicates end in a sink that writes the one column they produce back
// next to the others. AlignDistributed runs the distributed form of that
// align, a map-only cluster plan, through cluster.Align, with an executor of
// its own on every node. All of them take a context.Context and honor
// cancellation per chunk.
//
// Storage backends (local directories, an in-memory store, and a Ceph-like
// replicated object store) implement the same BlobStore interface, so
// pipelines are storage-agnostic (§4.2). See ROADMAP.md for the map from
// paper sections to open work and PERF.md for measured results, including
// the fused-pipeline wall/alloc deltas.
package persona

import (
	"context"
	"encoding/json"
	"io"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/align/snap"
	"persona/internal/cluster"
	"persona/internal/core"
	"persona/internal/filter"
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

// referenceBlob holds a store's synthetic-reference descriptor.
const referenceBlob = "_reference/meta.json"

type referenceMeta struct {
	GenomeSize int   `json:"genome_size"`
	Seed       int64 `json:"seed"`
}

// StoreReference records in store the synthetic reference of totalBases
// and seed, which LoadReference rebuilds, and returns it.
func StoreReference(store Store, totalBases int, seed int64) (*Genome, error) {
	meta, err := json.Marshal(referenceMeta{GenomeSize: totalBases, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := store.Put(referenceBlob, meta); err != nil {
		return nil, err
	}
	return SynthesizeGenome(totalBases, seed)
}

// LoadReference rebuilds the synthetic reference StoreReference recorded
// in store.
func LoadReference(store Store) (*Genome, error) {
	blob, err := store.Get(referenceBlob)
	if err != nil {
		return nil, err
	}
	var meta referenceMeta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, err
	}
	return SynthesizeGenome(meta.GenomeSize, meta.Seed)
}

// BuildIndex builds a SNAP-style seed index over a reference genome. When
// serving repeated requests, prefer Session.Index, which caches the build.
func BuildIndex(g *Genome) (*Index, error) {
	return snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
}

// RefSeqs derives manifest reference entries from a genome.
func RefSeqs(g *Genome) []agd.RefSeq { return agd.RefSeqsFromGenome(g) }

// runOnce runs the one-stage pipeline build returns on a session of its
// own — an executor of threads workers (0: GOMAXPROCS), no chunk cache, so
// each decoded chunk goes back to agd's recycler when its group is
// released — with no edges between its stages, and closes the session
// before returning.
func runOnce(ctx context.Context, store Store, threads int, build func(*Session) *Pipeline) (*PipelineReport, error) {
	sess := NewSession(store, SessionOptions{ExecutorThreads: threads, CacheBytes: -1})
	defer sess.Close()
	return build(sess).Serial().Run(ctx)
}

// ImportFASTQ converts a FASTQ stream into an AGD dataset and returns its
// manifest and record count — the one-stage form of the pipeline source
// Session.ImportFASTQ. On failure no blob of the dataset remains.
func ImportFASTQ(ctx context.Context, store Store, name string, src io.Reader, refs []agd.RefSeq, chunkSize int) (*Manifest, uint64, error) {
	rep, err := runOnce(ctx, store, 0, func(s *Session) *Pipeline {
		return s.ImportFASTQ(src, refs, chunkSize).Write(name)
	})
	if err != nil {
		return nil, 0, err
	}
	return rep.Manifest, rep.Records, nil
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
}

// Align aligns a dataset in place on a single server, appending a results
// column — the one-stage form of Pipeline.Align, on an executor of
// opts.ExecutorThreads workers. Only the bases column is read. On failure
// no results blob remains.
func Align(ctx context.Context, store Store, dataset string, idx *Index, opts AlignOptions) (*AlignReport, *Manifest, error) {
	return align(ctx, store, dataset, idx, opts, false)
}

// align is Align and AlignPaired: Read, Align, and the sink that writes the
// results column back into the dataset.
func align(ctx context.Context, store Store, dataset string, idx *Index, opts AlignOptions, paired bool) (*AlignReport, *Manifest, error) {
	threads := opts.ExecutorThreads
	if threads <= 0 {
		threads = 2
	}
	rep, err := runOnce(ctx, store, threads, func(s *Session) *Pipeline {
		return s.Read(dataset).align(idx, opts, paired).writeBack()
	})
	if err != nil {
		return nil, nil, err
	}
	return rep.Align, rep.Manifest, nil
}

// AlignDistributed aligns a dataset across nodes worker nodes, each with an
// executor of threadsPerNode workers: the map phase alone of a Distributed
// pipeline's plan, one task per chunk leased from the TCP phase server
// (§5.2's manifest server), heartbeat-guarded and re-dealt when a worker
// dies. Session.AlignDistributed is the same plan as a Pipeline, sharing a
// session's executor and warm index cache.
func AlignDistributed(ctx context.Context, store Store, dataset string, idx *Index, nodes, threadsPerNode int) (*ClusterReport, *Manifest, error) {
	return cluster.Align(ctx, store, dataset, idx, cluster.Config{
		Nodes:          nodes,
		ThreadsPerNode: threadsPerNode,
	})
}

// Sort externally sorts a dataset by the given key into outputName (empty
// for "<name>.sorted") and returns the sorted manifest — the one-stage form
// of the pipeline stage Pipeline.Sort. On failure no output blob remains.
func Sort(ctx context.Context, store Store, dataset string, by SortKey, outputName string) (*Manifest, error) {
	if outputName == "" {
		outputName = dataset + ".sorted"
	}
	rep, err := runOnce(ctx, store, 0, func(s *Session) *Pipeline {
		return s.Read(dataset).Sort(by).Write(outputName)
	})
	if err != nil {
		return nil, err
	}
	return rep.Manifest, nil
}

// MarkDuplicates flags duplicate reads in a dataset's results column — the
// one-stage form of Pipeline.MarkDuplicates. Only the results column is read
// and rewritten. A failed pass may leave some results blobs rewritten and
// others not; marking is deterministic, so it is simply run again.
func MarkDuplicates(ctx context.Context, store Store, dataset string) (DupStats, error) {
	rep, err := runOnce(ctx, store, 0, func(s *Session) *Pipeline {
		return s.Read(dataset).MarkDuplicates().writeBack()
	})
	if err != nil {
		return DupStats{}, err
	}
	return rep.Dups, nil
}

// ExportSAM streams a dataset out as SAM text — the one-stage form of
// Pipeline.ExportSAM.
func ExportSAM(ctx context.Context, store Store, dataset string, dst io.Writer) (uint64, error) {
	return export(ctx, store, dataset, func(p *Pipeline) *Pipeline { return p.ExportSAM(dst) })
}

// ExportBAM streams a dataset out as BAM — the one-stage form of
// Pipeline.ExportBAM.
func ExportBAM(ctx context.Context, store Store, dataset string, dst io.Writer) (uint64, error) {
	return export(ctx, store, dataset, func(p *Pipeline) *Pipeline { return p.ExportBAM(dst) })
}

// ExportFASTQ streams a dataset's reads back out as FASTQ — the one-stage
// form of Pipeline.ExportFASTQ.
func ExportFASTQ(ctx context.Context, store Store, dataset string, dst io.Writer) (uint64, error) {
	return export(ctx, store, dataset, func(p *Pipeline) *Pipeline { return p.ExportFASTQ(dst) })
}

// export runs Read(dataset) into the export sink, returning the records
// written.
func export(ctx context.Context, store Store, dataset string, sink func(*Pipeline) *Pipeline) (uint64, error) {
	rep, err := runOnce(ctx, store, 0, func(s *Session) *Pipeline { return sink(s.Read(dataset)) })
	if err != nil {
		return 0, err
	}
	return rep.Records, nil
}

// ImportSAM converts an aligned SAM stream into an AGD dataset with all
// four standard columns, and returns its manifest and record count: the SAM
// source, whose reference sequences and sort order come from the header,
// into a Write sink, as a one-stage pipeline. On failure it returns the
// records of the chunks parsed whole before it, and no blob of the dataset
// remains.
func ImportSAM(ctx context.Context, store Store, name string, src io.Reader, chunkSize int) (*Manifest, uint64, error) {
	prog := NewProgress()
	rep, err := runOnce(ctx, store, 0, func(s *Session) *Pipeline {
		p := &Pipeline{sess: s}
		return p.add(stage{name: "import-sam", Stage: cluster.Stage{Adds: alignedColumns}, open: func(*run) (*agd.GroupStream, error) {
			return sam.ImportStream(src, sam.ImportOptions{ChunkSize: chunkSize})
		}}).Write(name).Observe(prog)
	})
	if err != nil {
		var n uint64
		if stages := prog.Snapshot(); stages != nil {
			n = stages[0].Records
		}
		return nil, n, err
	}
	return rep.Manifest, rep.Records, nil
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
// (empty for "<name>.filtered") — the one-stage form of Pipeline.Filter. On
// failure, a predicate nothing matches included, no output blob remains.
func Filter(ctx context.Context, store Store, dataset string, pred FilterPredicate, outputName string) (*Manifest, FilterStats, error) {
	if outputName == "" {
		outputName = dataset + ".filtered"
	}
	rep, err := runOnce(ctx, store, 0, func(s *Session) *Pipeline {
		return s.Read(dataset).Filter(pred).Write(outputName)
	})
	if err != nil {
		return nil, FilterStats{}, err
	}
	return rep.Manifest, rep.Filtered, nil
}

// Variant is one called SNP.
type Variant = varcall.Variant

// CallVariants runs the pileup-based SNP caller over an aligned dataset
// (§8's variant-calling stage) with default options: a one-stage pipeline
// that reads the bases, qual and results columns into a pileup sink.
func CallVariants(ctx context.Context, store Store, dataset string, ref *Genome) ([]Variant, error) {
	var variants []Variant
	_, err := runOnce(ctx, store, 0, func(s *Session) *Pipeline {
		return s.Read(dataset).add(stage{name: "call-variants", reads: []string{agd.ColBases, agd.ColQual, agd.ColResults}, drain: func(r *run, in *agd.GroupStream) (uint64, error) {
			pile := varcall.NewPileup(ref)
			err := pile.AddStream(r.Ctx, in, varcall.NewOptions())
			if err == nil {
				variants, err = pile.Call(varcall.NewOptions())
			}
			reads, _ := pile.Stats()
			return uint64(reads), err
		}})
	})
	if err != nil {
		return nil, err
	}
	return variants, nil
}

// WriteVCF renders variant calls as a VCF 4.2 stream.
func WriteVCF(w io.Writer, ref *Genome, variants []Variant) error {
	return varcall.WriteVCF(w, agd.RefSeqsFromGenome(ref), variants)
}

// AlignPaired is Align in paired-end mode (records 2i and 2i+1 form pairs,
// so every chunk must hold whole pairs: import with an even chunk size).
func AlignPaired(ctx context.Context, store Store, dataset string, idx *Index, opts AlignOptions) (*AlignReport, *Manifest, error) {
	return align(ctx, store, dataset, idx, opts, true)
}
