//go:build !amd64 || race

package hostatomic

import "sync/atomic"

// StoreRel64 release-stores v at p (see StoreRel). Off amd64, and under the
// race detector so that it sees every happens-before edge, it is the
// sequentially consistent store.
func StoreRel64(p *int64, v int64) { atomic.StoreInt64(p, v) }

// StoreRel32 release-stores v at p (see StoreRel).
func StoreRel32(p *uint32, v uint32) { atomic.StoreUint32(p, v) }
