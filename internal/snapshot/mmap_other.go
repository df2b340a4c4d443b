//go:build !linux

package snapshot

import "os"

// mapFile maps nothing off Linux: LoadFile reads every file whole.
func mapFile(*os.File, int64) (data []byte, unmap func(), ok bool) { return nil, nil, false }
