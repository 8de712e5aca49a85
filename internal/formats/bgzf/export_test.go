package bgzf

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
)

// RefCompressBlock is the block encoder of earlier releases, kept as the
// reference: one compress/gzip member at BestSpeed with the BC subfield.
func RefCompressBlock(payload []byte) []byte {
	var zbuf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&zbuf, gzip.BestSpeed)
	if err != nil {
		panic(err)
	}
	zw.Extra = []byte{'B', 'C', 2, 0, 0, 0}
	zw.Write(payload)
	zw.Close()
	block := zbuf.Bytes()
	binary.LittleEndian.PutUint16(block[16:18], uint16(len(block)-1))
	return block
}
