//go:build linux

package snapshot

import (
	"math"
	"os"
	"syscall"
)

// mapFile maps the size bytes of f privately, readable and writable: the
// state LoadFile parses out of the mapping is written copy-on-write once
// restored, which leaves the file as it was. ok is false when the file
// cannot be mapped (an empty file, a file system without mmap), and the
// caller reads it instead.
func mapFile(f *os.File, size int64) (data []byte, unmap func(), ok bool) {
	if size <= 0 || size > math.MaxInt {
		return nil, nil, false
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, false
	}
	return data, func() { syscall.Munmap(data) }, true
}
