package stsk

// Option configures the v2 facade entry points. One option vocabulary
// serves the whole API: Build reads the ordering options (WithRowsPerSuper,
// WithLevels, WithSloanInPack), while NewSolver and NewIC0 read the solver
// options (WithWorkers, WithBlockWidth). Options irrelevant to an entry
// point are ignored, so a single options slice can be threaded through an
// entire pipeline.
type Option func(*config)

// config is the merged option state; the zero value means "paper
// defaults" everywhere.
type config struct {
	// Ordering pipeline (Build).
	rowsPerSuper int
	levels       int
	sloanInPack  bool

	// Solver (NewSolver, NewIC0).
	workers    int
	blockWidth int
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

// WithLevels selects the structural depth k for the k-level methods: 0 or
// 3 is the paper's STS-3; 4 adds a second coarsening round (the §5
// extension for deeper NUMA hierarchies).
func WithLevels(k int) Option {
	return func(c *config) { c.levels = k }
}

// WithSloanInPack reorders each pack's DAR graph with Sloan's
// profile-reducing ordering instead of the paper's RCM (§3.4 names
// alternative bandwidth-reducing orderings as future work).
func WithSloanInPack() Option {
	return func(c *config) { c.sloanInPack = true }
}

// WithWorkers fixes the most goroutines one call is swept by: the caller
// plus up to n−1 idle helpers of the process-wide set; 0 (the default)
// means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithBlockWidth sets the panel width of the blocked multi-vector solves
// (Solver.SolveBlock): right-hand sides are grouped into row-major panels
// of up to k columns and the matrix is traversed once per panel instead of
// once per vector. 0 (the default) selects the widest unrolled kernel
// (8); widths round down to the kernel widths {8, 4, 2}; 1 disables
// panelling and solves column by column.
func WithBlockWidth(k int) Option {
	return func(c *config) { c.blockWidth = k }
}
