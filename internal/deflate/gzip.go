package deflate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// ErrHeader reports bytes that are not one well-formed RFC 1952 member.
var ErrHeader = errors.New("deflate: invalid gzip member")

const (
	gzipHeaderSize  = 10
	gzipTrailerSize = 8

	flagHCRC    = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// AppendGzip appends src to dst as one gzip member — header, deflate stream,
// CRC-32 and ISIZE — that any RFC 1952 reader inflates. crc must be the IEEE
// CRC-32 of src; callers that store it elsewhere too compute it once. A
// non-empty extra becomes the member's FEXTRA field, which is where BGZF
// keeps its block size.
func AppendGzip(dst, src []byte, crc uint32, extra []byte) []byte {
	// XFL 4 says "fastest algorithm", OS 255 "unknown", as compress/gzip does.
	hdr := [gzipHeaderSize]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 0xff}
	if len(extra) > 0 {
		hdr[3] = flagExtra
		dst = append(dst, hdr[:]...)
		dst = append(dst, byte(len(extra)), byte(len(extra)>>8))
		dst = append(dst, extra...)
	} else {
		dst = append(dst, hdr[:]...)
	}
	dst = Deflate(dst, src)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
}

// Gunzip inflates src, which must be exactly one gzip member, into dst, which
// must be exactly as long as the member's content. It checks the framing and
// ISIZE and returns the CRC-32 the trailer states; comparing it with the CRC
// of dst is left to the caller, who may have a second stored CRC to check
// against the same pass.
func Gunzip(dst, src []byte) (uint32, error) {
	if len(src) < gzipHeaderSize+gzipTrailerSize || src[0] != 0x1f || src[1] != 0x8b || src[2] != 8 {
		return 0, ErrHeader
	}
	flags := src[3]
	body := src[gzipHeaderSize:]
	if flags&flagExtra != 0 {
		if len(body) < 2 || len(body)-2 < int(binary.LittleEndian.Uint16(body)) {
			return 0, ErrHeader
		}
		body = body[2+int(binary.LittleEndian.Uint16(body)):]
	}
	for _, f := range [...]byte{flagName, flagComment} {
		if flags&f != 0 {
			end := bytes.IndexByte(body, 0)
			if end < 0 {
				return 0, ErrHeader
			}
			body = body[end+1:]
		}
	}
	if flags&flagHCRC != 0 {
		hdr := src[:len(src)-len(body)]
		if len(body) < 2 || binary.LittleEndian.Uint16(body) != uint16(crc32.ChecksumIEEE(hdr)) {
			return 0, ErrHeader
		}
		body = body[2:]
	}
	n, err := Inflate(dst, body)
	if err != nil {
		return 0, err
	}
	trailer := body[n:]
	if len(trailer) != gzipTrailerSize {
		return 0, ErrHeader
	}
	if binary.LittleEndian.Uint32(trailer[4:]) != uint32(len(dst)) {
		return 0, ErrSize
	}
	return binary.LittleEndian.Uint32(trailer), nil
}
