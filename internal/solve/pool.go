package solve

import "sync"

// Typed sync.Pool wrappers. sync.Pool traffics in `any`, so bare
// Get/Put calls put an interface conversion on the dispatch path — the
// noalloc analyzer cannot prove a conversion free (and for non-pointer
// values it is not), so the hot paths stay monomorphic by routing every
// pool access through these wrappers. The conversions live here, outside
// the //stsk:noalloc boundary, and each Get falls back to constructing a
// fresh value when the pool is empty (or when the race detector has
// dropped the puts), so no New closure is needed.

// wholeJobPool recycles whole-panel job descriptors.
type wholeJobPool struct{ p sync.Pool }

func (pl *wholeJobPool) Get() *wholeJob {
	if j, ok := pl.p.Get().(*wholeJob); ok {
		return j
	}
	return new(wholeJob)
}

func (pl *wholeJobPool) Put(j *wholeJob) { pl.p.Put(j) }

// batchRunPool recycles multi-panel call completion trackers.
type batchRunPool struct{ p sync.Pool }

func (pl *batchRunPool) Get() *batchRun {
	if r, ok := pl.p.Get().(*batchRun); ok {
		return r
	}
	return &batchRun{done: make(chan struct{}, 1)}
}

func (pl *batchRunPool) Put(r *batchRun) { pl.p.Put(r) }

// panelPool recycles row-major n×maxBlockWidth panel scratch. size is the
// element count of a full panel, fixed at engine construction.
type panelPool struct {
	p    sync.Pool
	size int
}

func (pl *panelPool) Get() *[]float64 {
	if b, ok := pl.p.Get().(*[]float64); ok {
		return b
	}
	buf := make([]float64, pl.size)
	return &buf
}

func (pl *panelPool) Put(b *[]float64) { pl.p.Put(b) }
