package agd

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
)

// refGzipAppend is the member encoder of earlier releases, kept as the
// reference: compress/gzip at BestSpeed.
func refGzipAppend(dst, src []byte) []byte {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		panic(err)
	}
	zw.Write(src)
	zw.Close()
	return append(dst, buf.Bytes()...)
}

// RefEncodeChunk writes c the way earlier releases did, byte for byte:
// members 0 is their version-1 layout, anything else their version-2 layout
// with that many members, every member from compress/gzip.
func RefEncodeChunk(c *Chunk, members int) []byte {
	version := byte(chunkVersion)
	if members > 0 {
		version = chunkVersionParallel
	}
	dst := encodeChunkHeader(nil, c, version, CompressGzip)
	dst = appendChunkIndex(dst, c)
	idxLen := len(dst) - chunkHeaderSize
	if members == 0 {
		dst = refGzipAppend(dst, c.Data)
	} else {
		var comps [][]byte
		sizes := binary.LittleEndian.AppendUint32(nil, uint32(members))
		for i := 0; i < members; i++ {
			part := c.Data[i*len(c.Data)/members : (i+1)*len(c.Data)/members]
			comps = append(comps, refGzipAppend(nil, part))
			sizes = binary.LittleEndian.AppendUint32(sizes, uint32(len(comps[i])))
		}
		for i := 0; i < members; i++ {
			sizes = binary.LittleEndian.AppendUint32(sizes, uint32((i+1)*len(c.Data)/members-i*len(c.Data)/members))
		}
		dst = append(dst, sizes...)
		for _, m := range comps {
			dst = append(dst, m...)
		}
	}
	patchChunkHeader(dst, idxLen, len(dst)-chunkHeaderSize-idxLen, crc32.ChecksumIEEE(c.Data))
	return appendChunkFooter(dst, 0)
}
