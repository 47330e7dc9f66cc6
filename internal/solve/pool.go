package solve

import "sync"

// pool is a typed sync.Pool. sync.Pool traffics in `any`, so bare
// Get/Put calls put an interface conversion on the dispatch path — the
// noalloc analyzer cannot prove a conversion free (and for non-pointer
// values it is not), so the hot paths stay monomorphic by routing every
// pool access through this wrapper. The conversions live here, outside
// the //stsk:noalloc boundary, and Get falls back to fresh when the pool
// is empty (or when the race detector has dropped the puts).
type pool[T any] struct {
	p     sync.Pool
	fresh func() *T
}

func (pl *pool[T]) Get() *T {
	if v, ok := pl.p.Get().(*T); ok {
		return v
	}
	return pl.fresh()
}

func (pl *pool[T]) Put(v *T) { pl.p.Put(v) }
