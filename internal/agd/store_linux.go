//go:build linux && (amd64 || arm64)

package agd

import (
	"io"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// readVectored fills bufs from f starting at off using preadv: one syscall
// reads the contiguous region and scatters it across the buffers, however
// many ranges were coalesced. Restricted to 64-bit Linux so the file offset
// fits one syscall argument (32-bit ABIs split it lo/hi); everywhere else
// store_portable.go supplies a ReadAt loop. Returns io.ErrUnexpectedEOF if
// the file ends before the buffers are full.
func readVectored(f *os.File, off int64, bufs [][]byte) error {
	// A whole-blob Get reads into one buffer: a small array on the stack
	// holds its iovec, so the read allocates nothing of its own.
	var small [4]syscall.Iovec
	iovs := small[:0]
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		iovs = append(iovs, syscall.Iovec{Base: &b[0], Len: uint64(len(b))})
	}
	for len(iovs) > 0 {
		n, _, errno := syscall.Syscall6(syscall.SYS_PREADV,
			f.Fd(), uintptr(unsafe.Pointer(&iovs[0])), uintptr(len(iovs)),
			uintptr(off), 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return errno
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
		off += int64(n)
		// Advance past fully read iovecs; trim a partially read one.
		got := uint64(n)
		for len(iovs) > 0 && got >= iovs[0].Len {
			got -= iovs[0].Len
			iovs = iovs[1:]
		}
		if len(iovs) > 0 && got > 0 {
			iovs[0].Base = (*byte)(unsafe.Pointer(uintptr(unsafe.Pointer(iovs[0].Base)) + uintptr(got)))
			iovs[0].Len -= got
		}
	}
	runtime.KeepAlive(f)
	return nil
}
