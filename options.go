package stsk

// Option configures the v2 facade entry points. One option vocabulary
// serves the whole API: Build reads WithRowsPerSuper, while NewSolver and
// NewIC0 read WithWorkers. Options irrelevant to an entry point are
// ignored, so a single options slice can be threaded through an entire
// pipeline.
type Option func(*config)

// config is the merged option state; the zero value means "paper
// defaults" everywhere.
type config struct {
	rowsPerSuper int // ordering pipeline (Build)
	workers      int // solver (NewSolver, NewIC0)
}

func applyOptions(opts []Option) config {
	var c config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithRowsPerSuper sets the super-row size for the k-level methods; the
// paper uses 80 (Intel, 256 KiB L2) and 320 (AMD, 512 KiB L2). 0 selects
// the default (80).
func WithRowsPerSuper(rows int) Option {
	return func(c *config) { c.rowsPerSuper = rows }
}

// WithWorkers fixes the most goroutines one call is swept by: the caller
// plus up to n−1 idle helpers of the process-wide set; 0 (the default)
// means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}
