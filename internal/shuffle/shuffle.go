// Package shuffle implements the key-range shuffle under Persona's
// distributed fused pipelines: the coordination payloads and blob layout
// that move sorted superchunk runs from the workers that built them to the
// partitions that own their key ranges.
//
// The flow mirrors a sample sort stretched across nodes, reusing the
// in-process sort's splitter machinery (agdsort): every map task spills one
// sorted run and reports an equi-depth sample of its keys; the coordinator
// pools the samples into p-1 global splitters (SelectCuts); every shuffle
// task then cuts its run at those splitters and hands each fragment to its
// partition via the blob store, under deterministic
// "<prefix>/part<k>/piece-<run>" names — so a re-executed task rewrites
// identical blobs and recovery needs no cleanup protocol. Location-sorted
// pipelines that mark duplicates also emit a halo per cut: the results
// fields of rows just below the splitter, wide enough (2·maxSpan+1) that
// every signature able to collide across the cut is present, which lets
// each partition seed its duplicate-marker independently.
package shuffle

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"

	"persona/internal/agd"
	"persona/internal/agdsort"
)

// SampleCount is how many rows each run contributes to splitter selection:
// the runs are sorted, so evenly spaced rows are an equi-depth histogram of a
// run's key range.
const SampleCount = 64

// Sample is one sampled run row on the wire (agdsort.RunSample's JSON
// form): the packed primary key plus, for metadata sorts, the full key
// bytes.
type Sample struct {
	Key  uint64 `json:"k"`
	Full []byte `json:"f,omitempty"`
}

// RunSummary is a map task's completion payload: the run's equi-depth key
// samples plus what halo sizing and skew accounting need.
type RunSummary struct {
	Rows    int      `json:"rows"`
	Samples []Sample `json:"samples,omitempty"`
	// MaxSpan is the largest |signature position − location| over the run's
	// mapped rows (duplicate-marking pipelines only).
	MaxSpan int64 `json:"max_span,omitempty"`
}

// Cuts is the coordinator's splitter decision, broadcast to every worker
// before the shuffle phase opens.
type Cuts struct {
	// Splitters holds the p-1 sorted partition boundaries; rows comparing
	// >= a splitter belong to the partition at its right.
	Splitters []Sample `json:"splitters"`
	// Halo is the key-distance below each cut whose rows seed the right
	// partition's duplicate marker (0 when the pipeline does not mark).
	Halo int64 `json:"halo,omitempty"`
}

// ShuffleResult is a shuffle task's completion payload.
type ShuffleResult struct {
	// PartRows is how many of the run's rows each partition received.
	PartRows []int64 `json:"part_rows"`
	// Bytes is the encoded size of every piece and halo blob written.
	Bytes int64 `json:"bytes"`
}

// PartResult is a reduce task's completion payload: the partition's output
// chunk layout and its stage statistics.
type PartResult struct {
	// ChunkRecords lists the partition's output chunks in row order.
	ChunkRecords []uint32 `json:"chunk_records,omitempty"`
	Rows         uint64   `json:"rows"`
	DupReads     uint64   `json:"dup_reads,omitempty"`
	Duplicates   uint64   `json:"duplicates,omitempty"`
	FilterIn     uint64   `json:"filter_in,omitempty"`
	FilterKept   uint64   `json:"filter_kept,omitempty"`
}

// Encode renders a coordination payload as one protocol token (base64 of
// JSON — the manifest-server protocol is line-oriented).
func Encode(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("shuffle: encode payload: %w", err)
	}
	return base64.RawURLEncoding.EncodeToString(b), nil
}

// Decode parses a payload token produced by Encode.
func Decode(tok string, v any) error {
	b, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return fmt.Errorf("shuffle: decode payload: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("shuffle: decode payload: %w", err)
	}
	return nil
}

// RunBlob names map task b's sorted run under a shuffle namespace.
func RunBlob(prefix string, b int) string {
	return fmt.Sprintf("%s/run-%06d", prefix, b)
}

// PieceBlob names run b's fragment owned by partition k. Every (k, b) pair
// is written, empty fragments included, so readers need no existence
// probes.
func PieceBlob(prefix string, k, b int) string {
	return fmt.Sprintf("%s/part%d/piece-%06d", prefix, k, b)
}

// HaloBlob names run b's duplicate-marking halo for partition k (k >= 1:
// partition 0 has no earlier rows to seed from).
func HaloBlob(prefix string, k, b int) string {
	return fmt.Sprintf("%s/part%d/halo-%06d", prefix, k, b)
}

// PartDataset names the dataset partition k's reduce writes its chunks as:
// all chunks and no manifest, under the output dataset's prefix. The
// coordinator names them again (agd.ChunkEntryPath) to stitch the output's
// one manifest.
func PartDataset(out string, k int) string {
	return fmt.Sprintf("%s/part%d", out, k)
}

// SelectCuts pools every run's samples and picks p-1 equi-depth splitters
// (duplicate splitters are possible on skewed keys and yield empty
// partitions — harmless). Halo is sized from the summaries' maximum
// signature span: a row whose signature collides with a row at or above a
// cut must itself lie within 2·maxSpan of the cut, so 2·maxSpan+1 covers
// every cross-cut collision. Returns an error when no run reported any
// rows.
func SelectCuts(summaries []RunSummary, p int, markdup bool) (Cuts, error) {
	if p <= 0 {
		return Cuts{}, fmt.Errorf("shuffle: select cuts: %d partitions", p)
	}
	var samples []Sample
	var rows int
	var maxSpan int64
	for _, s := range summaries {
		rows += s.Rows
		samples = append(samples, s.Samples...)
		if s.MaxSpan > maxSpan {
			maxSpan = s.MaxSpan
		}
	}
	if rows == 0 {
		return Cuts{}, fmt.Errorf("shuffle: select cuts: no rows sampled")
	}
	cuts := Cuts{Splitters: make([]Sample, 0, p-1)}
	if markdup {
		cuts.Halo = 2*maxSpan + 1
	}
	if p == 1 {
		return cuts, nil
	}
	slices.SortFunc(samples, func(a, b Sample) int {
		if a.Key != b.Key {
			if a.Key < b.Key {
				return -1
			}
			return 1
		}
		return bytes.Compare(a.Full, b.Full)
	})
	for i := 1; i < p; i++ {
		cuts.Splitters = append(cuts.Splitters, samples[i*len(samples)/p])
	}
	return cuts, nil
}

// CutPoints returns, for each splitter, the first row of the sorted run at
// or after it — the fragment boundaries of a shuffle task. The cuts are
// sorted, so the returned indexes are nondecreasing.
func CutPoints(run *agd.Chunk, keyCol int, by agdsort.Key, splitters []Sample) []int {
	pts := make([]int, len(splitters))
	for i, sp := range splitters {
		pts[i] = agdsort.CutRun(run, keyCol, by, agdsort.RunSample{Key: sp.Key, Full: sp.Full})
	}
	return pts
}

// BuildPiece packs rows [lo, hi) of a decoded run into a raw piece chunk,
// record bytes unchanged — partition merges read pieces exactly as the
// in-process merge reads whole runs.
func BuildPiece(run *agd.Chunk, lo, hi int) (*agd.Chunk, error) {
	b := agd.NewChunkBuilder(agd.TypeRaw, 0)
	for r := lo; r < hi; r++ {
		rec, err := run.Record(r)
		if err != nil {
			return nil, err
		}
		b.Append(rec)
	}
	return b.Chunk(), nil
}

// HaloRange returns the row range [lo, hi) of the run whose keys lie in
// [cut.Key−halo, cut.Key) — the rows below a cut whose signatures could
// collide with rows at or above it. Location keys only (halos exist only
// for location-sorted marking pipelines).
func HaloRange(run *agd.Chunk, keyCol int, by agdsort.Key, cut Sample, halo int64) (lo, hi int) {
	low := uint64(0)
	if uint64(halo) <= cut.Key {
		low = cut.Key - uint64(halo)
	}
	lo = agdsort.CutRun(run, keyCol, by, agdsort.RunSample{Key: low})
	hi = agdsort.CutRun(run, keyCol, by, agdsort.RunSample{Key: cut.Key, Full: cut.Full})
	return lo, hi
}

// BuildHalo packs the key-column fields (results records, for marking
// pipelines) of rows [lo, hi) into a raw chunk.
func BuildHalo(run *agd.Chunk, keyCol, lo, hi int) (*agd.Chunk, error) {
	b := agd.NewChunkBuilder(agd.TypeRaw, 0)
	for r := lo; r < hi; r++ {
		f, err := agdsort.RunField(run, keyCol, r)
		if err != nil {
			return nil, err
		}
		b.Append(f)
	}
	return b.Chunk(), nil
}

// Skew is the partition imbalance measure the cluster report carries:
// largest partition over mean partition size (1.0 = perfectly even; 0 when
// there are no rows).
func Skew(partRows []int64) float64 {
	if len(partRows) == 0 {
		return 0
	}
	var max, sum int64
	for _, n := range partRows {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(partRows))
	return float64(max) / mean
}
