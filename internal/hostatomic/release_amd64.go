//go:build amd64 && !race

package hostatomic

// StoreRel64 release-stores v at p (see StoreRel).
//
//go:noescape
func StoreRel64(p *int64, v int64)

// StoreRel32 release-stores v at p (see StoreRel).
//
//go:noescape
func StoreRel32(p *uint32, v uint32)
