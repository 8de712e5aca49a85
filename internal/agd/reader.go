package agd

import (
	"context"
	"fmt"
	"io"
)

// Dataset provides read access to an AGD dataset in a blob store.
type Dataset struct {
	Manifest *Manifest
	store    BlobStore
}

// Open loads a dataset's manifest and returns a reader for it.
func Open(store BlobStore, name string) (*Dataset, error) {
	m, err := ReadManifest(store, name)
	if err != nil {
		return nil, err
	}
	return &Dataset{Manifest: m, store: store}, nil
}

// OpenManifest wraps an already-loaded manifest.
func OpenManifest(store BlobStore, m *Manifest) *Dataset {
	return &Dataset{Manifest: m, store: store}
}

// Store returns the underlying blob store.
func (d *Dataset) Store() BlobStore { return d.store }

// NumChunks returns the number of row-group chunks.
func (d *Dataset) NumChunks() int { return len(d.Manifest.Chunks) }

// NumRecords returns the total record count.
func (d *Dataset) NumRecords() uint64 { return d.Manifest.NumRecords() }

// ReadAllColumn decodes every record of a column across all chunks, copying
// each record. Intended for tests and small datasets; the pipeline operates
// chunk-wise.
func (d *Dataset) ReadAllColumn(col string) ([][]byte, error) {
	var out [][]byte
	err := d.readAll(col, func(c *Chunk, r int) error {
		rec, err := c.Record(r)
		out = append(out, append([]byte{}, rec...))
		return err
	})
	return out, err
}

// ReadAllBases decodes the bases column across all chunks into base-letter
// strings.
func (d *Dataset) ReadAllBases() ([][]byte, error) {
	var out [][]byte
	err := d.readAll(ColBases, func(c *Chunk, r int) error {
		if c.Type != TypePackedBases {
			return fmt.Errorf("agd: bases column has type %v", c.Type)
		}
		bases, err := c.ExpandBasesRecord(nil, r)
		out = append(out, bases)
		return err
	})
	return out, err
}

// ReadAllResults decodes the results column across all chunks.
func (d *Dataset) ReadAllResults() ([]Result, error) {
	var out []Result
	err := d.readAll(ColResults, func(c *Chunk, r int) error {
		res, err := c.DecodeResultRecord(r)
		out = append(out, res)
		return err
	})
	return out, err
}

// readAll is the ReadAll* loop: every record r of every chunk c of column
// col, in row order, through Groups.
func (d *Dataset) readAll(col string, each func(c *Chunk, r int) error) error {
	gs, err := d.Groups(StreamOptions{Columns: []string{col}})
	if err != nil {
		return err
	}
	defer gs.Close()
	for {
		g, err := gs.Next(context.TODO()) // the kept signatures take no context
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		c := g.Chunks[0]
		for r := 0; r < c.NumRecords() && err == nil; r++ {
			err = each(c, r)
		}
		g.Release()
		if err != nil {
			return err
		}
	}
}
