// Package epochpin is the analyzer's fixture: a miniature of the solve
// layer's epoch holder (a Values type over a swappable snapshot) with the
// pin-once discipline violated one way per function.
package epochpin

type epoch struct{ version int }

type cell struct{ p *epoch }

func (c *cell) Load() *epoch { return c.p }

// Values mirrors internal/solve's copy-on-write epoch holder.
type Values struct{ cur cell }

func (v *Values) Current() *epoch { return v.cur.Load() }

func (v *Values) Structure() *epoch { return v.cur.Load() }

type helperSet struct{ jobs chan int }

func (h *helperSet) offer(j, n int) {
	for ; n > 0; n-- {
		h.jobs <- j
	}
}

// pinOnce is the discipline: one load, threaded everywhere.
func pinOnce(v *Values, n int) int {
	ep := v.Current()
	s := 0
	for i := 0; i < n; i++ {
		s += ep.version
	}
	return s
}

func loadInLoop(v *Values, n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += v.Current().version // want "epoch load inside a loop"
	}
	return s
}

func secondLoad(v *Values) int {
	a := v.Current()
	b := v.Structure() // want "second epoch load in one function"
	return a.version + b.version
}

func rawSecondLoad(v *Values) int {
	a := v.cur.Load()
	b := v.cur.Load() // want "second epoch load in one function"
	return a.version + b.version
}

func afterOffer(v *Values, h *helperSet) int {
	h.offer(1, 2)
	return v.Current().version // want "epoch load after dispatch"
}

func afterSend(v *Values, jobs chan int) int {
	jobs <- 1
	return v.Current().version // want "epoch load after dispatch"
}

// funcLitScopes: a literal is its own scope, so one load outside and one
// inside is two pins of two independent solves.
func funcLitScopes(v *Values) func() int {
	ep := v.Current()
	f := func() int {
		return v.Current().version + ep.version
	}
	return f
}

// repinLine re-pins per streamed element, annotated at the load.
func repinLine(v *Values, jobs chan int, n int) {
	for i := 0; i < n; i++ {
		//stsk:allow-epoch-repin
		jobs <- v.Current().version
	}
}

// repinFunc opts a whole polling helper out via its doc comment.
//
//stsk:allow-epoch-repin
func repinFunc(v *Values, n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += v.Current().version
	}
	return s
}
